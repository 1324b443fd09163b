(* Fixed-size domain pool over an array of items.  Workers claim the
   next unclaimed index from one atomic counter and write the result
   into that index's own slot, so no queue or lock is needed. *)

let default_jobs () = Domain.recommended_domain_count ()

type 'b slot =
  | Pending
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let input = Array.of_list items in
  let n = Array.length input in
  let results = Array.make n Pending in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        (match f input.(i) with
        | v -> Value v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ()));
      worker ()
    end
  in
  (* The calling domain is one of the workers. *)
  let domains = Array.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
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
    (Array.map (function Value v -> v | Pending | Raised _ -> assert false) results)
