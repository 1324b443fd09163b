type 'v state = Computing | Done of 'v

type 'v t = {
  mutex : Mutex.t;
  done_ : Condition.t;
  table : (string, 'v state) Hashtbl.t;
}

let create () =
  { mutex = Mutex.create (); done_ = Condition.create (); table = Hashtbl.create 64 }

let rec find_or_compute t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some (Done v) ->
      Mutex.unlock t.mutex;
      v
  | Some Computing ->
      (* Another domain is computing this key: wait for it to finish
         (or fail) rather than duplicating the work. *)
      Condition.wait t.done_ t.mutex;
      Mutex.unlock t.mutex;
      find_or_compute t ~key f
  | None -> (
      Hashtbl.replace t.table key Computing;
      Mutex.unlock t.mutex;
      match f () with
      | v ->
          Mutex.lock t.mutex;
          Hashtbl.replace t.table key (Done v);
          Condition.broadcast t.done_;
          Mutex.unlock t.mutex;
          v
      | exception e ->
          (* Failed computations are not cached; unblock waiters so
             one of them retries. *)
          Mutex.lock t.mutex;
          Hashtbl.remove t.table key;
          Condition.broadcast t.done_;
          Mutex.unlock t.mutex;
          raise e)
