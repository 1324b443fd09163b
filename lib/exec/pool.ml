(* Fixed-size domain pool fed by a bounded work queue.  The producer
   (the calling domain) pushes job indices; workers block on a
   condition variable when the queue is empty and the producer blocks
   when it is full, so arbitrarily large job lists run in constant
   queue memory. *)

type 'a channel = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  buffer : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let channel capacity =
  {
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    buffer = Queue.create ();
    capacity;
    closed = false;
  }

let push chan x =
  Mutex.lock chan.mutex;
  while Queue.length chan.buffer >= chan.capacity do
    Condition.wait chan.not_full chan.mutex
  done;
  Queue.push x chan.buffer;
  Condition.signal chan.not_empty;
  Mutex.unlock chan.mutex

let close chan =
  Mutex.lock chan.mutex;
  chan.closed <- true;
  Condition.broadcast chan.not_empty;
  Mutex.unlock chan.mutex

let pop chan =
  Mutex.lock chan.mutex;
  while Queue.is_empty chan.buffer && not chan.closed do
    Condition.wait chan.not_empty chan.mutex
  done;
  let item =
    if Queue.is_empty chan.buffer then None
    else begin
      let x = Queue.pop chan.buffer in
      Condition.signal chan.not_full;
      Some x
    end
  in
  Mutex.unlock chan.mutex;
  item

let default_jobs () = Domain.recommended_domain_count ()

type 'b slot =
  | Pending
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  match items with
  | [] -> []
  | items when jobs = 1 ->
      (* Sequential fallback: no domains, no queue, same semantics. *)
      List.map f items
  | items ->
      let input = Array.of_list items in
      let n = Array.length input in
      let results = Array.make n Pending in
      let workers = min jobs n in
      let chan = channel (2 * workers) in
      let worker () =
        let rec loop () =
          match pop chan with
          | None -> ()
          | Some i ->
              (results.(i) <-
                (match f input.(i) with
                | v -> Value v
                | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
              loop ()
        in
        loop ()
      in
      let domains = Array.init workers (fun _ -> Domain.spawn worker) in
      for i = 0 to n - 1 do
        push chan i
      done;
      close chan;
      Array.iter Domain.join domains;
      (* Re-raise the lowest-index failure so error reporting does not
         depend on worker scheduling. *)
      Array.iter
        (function
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Value _ -> ()
          | Pending -> assert false)
        results;
      Array.to_list
        (Array.map
           (function Value v -> v | Pending | Raised _ -> assert false)
           results)
