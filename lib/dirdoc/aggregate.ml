(* In-place insertion sort of [a.(0 .. k-1)] — the buckets being sorted
   hold at most one element per vote, where insertion sort beats any
   comparison-sort setup cost. *)
let sort_prefix ~compare a k =
  for i = 1 to k - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare a.(!j) v > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Popular vote over an array prefix, sorted in place: the most common
   value wins, and a count tie goes to the larger value (Figure 2)
   because a later run wins on equal counts. *)
let popular ~compare a k =
  sort_prefix ~compare a k;
  let best = ref a.(0) and best_count = ref 0 in
  let current = ref a.(0) and count = ref 1 in
  for i = 1 to k - 1 do
    if compare a.(i) !current = 0 then incr count
    else begin
      if !count >= !best_count then begin
        best := !current;
        best_count := !count
      end;
      current := a.(i);
      count := 1
    end
  done;
  if !count >= !best_count then !current else !best

(* The same sort on a bucket's bandwidths, with no comparison
   closure. *)
let sort_ints (a : int array) k =
  for i = 1 to k - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* One voted property of a bucket's [k] listings.  Views share the
   ground truth's values, so most buckets agree: when every listing's
   value is the first listing's, physically or by [equal], that value
   is what [vote] would return (the stable sort leaves the prefix in
   place and the popular scan returns its first value; a flag set held
   by every listing is its own majority).  Only a bucket that
   disagrees copies into [scratch] and votes. *)
let[@inline] decide ~equal ~get ~vote rels scratch k =
  let first = get rels.(0) in
  let i = ref 1 in
  while
    !i < k
    &&
    let v = get rels.(!i) in
    v == first || equal v first
  do
    incr i
  done;
  if !i = k then first
  else begin
    for i = 0 to k - 1 do
      scratch.(i) <- get rels.(i)
    done;
    vote scratch k
  end

(* The tests' reference model buckets listings into a [Hashtbl] of
   lists and rescans each bucket per flag/property with [List.filter] /
   [List.sort] / [List.nth].  [Vote.create] already sorts each vote's
   relays by fingerprint and rejects duplicates, so the votes can
   instead be merged like sorted runs: one cursor per vote, each merge
   step collects every listing of the smallest current fingerprint into
   fixed scratch arrays (at most one listing per vote) and aggregates
   them in place — no table, no ref-lists, no per-property rescans of
   a list.  The views share fingerprint strings too, so the scan and
   the gather compare physically before comparing bytes. *)
let compute_consensus ~valid_after ~votes =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (v : Vote.t) ->
      if Hashtbl.mem seen v.Vote.authority then
        invalid_arg "Aggregate.consensus: duplicate authority vote";
      Hashtbl.replace seen v.Vote.authority ())
    votes;
  let votes = Array.of_list votes in
  let n_votes = Array.length votes in
  (* Inclusion needs a strict majority of the aggregated votes
     (DESIGN.md §4.2). *)
  let threshold = (n_votes / 2) + 1 in
  (* Any relay works as scratch filler; if no vote lists any relay the
     merge below has nothing to do. *)
  let filler = ref None in
  Array.iter
    (fun (v : Vote.t) ->
      if !filler = None && Array.length v.Vote.relays > 0 then
        filler := Some v.Vote.relays.(0))
    votes;
  match !filler with
  | None -> Consensus.create ~valid_after ~n_votes ~entries:[]
  | Some f ->
      let cursor = Array.make n_votes 0 in
      (* Scratch for the current fingerprint's bucket, reused across the
         whole merge. *)
      let rels = Array.make n_votes f in
      let flag_sets = Array.make n_votes f.Relay.flags in
      let versions = Array.make n_votes f.Relay.version in
      let protos = Array.make n_votes f.Relay.protocols in
      let policies = Array.make n_votes f.Relay.exit_policy in
      let bws = Array.make n_votes 0 in
      let entries = ref [] in
      let running = ref true in
      while !running do
        (* Smallest fingerprint under any cursor is the next candidate. *)
        let min_fp = ref "" in
        let found = ref false in
        for i = 0 to n_votes - 1 do
          let relays = votes.(i).Vote.relays in
          if cursor.(i) < Array.length relays then begin
            let fp = relays.(cursor.(i)).Relay.fingerprint in
            if (not !found) || (fp != !min_fp && String.compare fp !min_fp < 0) then begin
              min_fp := fp;
              found := true
            end
          end
        done;
        if not !found then running := false
        else begin
          let min_fp = !min_fp in
          (* Gather the bucket.  Its nickname comes from the listing
             vote with the largest authority id (ids are distinct,
             checked above, and never negative). *)
          let k = ref 0 in
          let named_by = ref (-1) and nickname = ref "" in
          for i = 0 to n_votes - 1 do
            let relays = votes.(i).Vote.relays in
            if cursor.(i) < Array.length relays then begin
              let r = relays.(cursor.(i)) in
              let fp = r.Relay.fingerprint in
              if fp == min_fp || String.equal fp min_fp then begin
                if votes.(i).Vote.authority > !named_by then begin
                  named_by := votes.(i).Vote.authority;
                  nickname := r.Relay.nickname
                end;
                rels.(!k) <- r;
                incr k;
                cursor.(i) <- cursor.(i) + 1
              end
            end
          done;
          let k = !k in
          if k >= threshold then begin
            (* Flags: strict majority of listing votes; ties unset. *)
            let flags =
              decide ~equal:Flags.equal ~get:(fun r -> r.Relay.flags) ~vote:Flags.majority
                rels flag_sets k
            in
            (* Each [vote] is a closed function: a partial application
               of [popular] would allocate a closure per bucket. *)
            let version =
              decide ~equal:Version.equal ~get:(fun r -> r.Relay.version)
                ~vote:(fun a k -> popular ~compare:Version.compare a k) rels versions k
            in
            let protocols =
              decide ~equal:String.equal ~get:(fun r -> r.Relay.protocols)
                ~vote:(fun a k -> popular ~compare:String.compare a k) rels protos k
            in
            let exit_policy =
              decide ~equal:Exit_policy.equal ~get:(fun r -> r.Relay.exit_policy)
                ~vote:(fun a k -> popular ~compare:Exit_policy.compare a k) rels policies k
            in
            (* Bandwidth: in-place low-median of the measured values,
               falling back to advertised when none were measured. *)
            let m = ref 0 in
            for i = 0 to k - 1 do
              match rels.(i).Relay.measured with
              | Some v ->
                  bws.(!m) <- v;
                  incr m
              | None -> ()
            done;
            if !m = 0 then begin
              for i = 0 to k - 1 do
                bws.(i) <- rels.(i).Relay.bandwidth
              done;
              m := k
            end;
            sort_ints bws !m;
            let bandwidth = bws.((!m - 1) / 2) in
            entries :=
              {
                Consensus.fingerprint = min_fp;
                nickname = !nickname;
                flags;
                version;
                protocols;
                bandwidth;
                exit_policy;
              }
              :: !entries
          end
        end
      done;
      (* The merge visits fingerprints in ascending order, so reversing
         the accumulator hands [Consensus.create] a sorted list and its
         sort check short-circuits. *)
      Consensus.create ~valid_after ~n_votes ~entries:(List.rev !entries)

(* Aggregation is a pure function of the vote SET and [valid_after]
   (the result is order-independent), so authorities holding identical
   vote sets share one computation, within a run and across runs.  The
   key is the sorted vote digests — content-addressed, so it cannot
   confuse distinct inputs — plus [valid_after], so a shared document
   is the one a fresh merge would build.  An equivocator's variant is a
   pure function of its vote, so the memo keeps one per authority.  A
   memo belongs to a vote population and is found by the array's
   physical identity in an ephemeron table, so it is collected with the
   array (the memo's own reference to the array does not keep it
   alive).  Lookups and inserts hold the memo's lock, the work runs
   outside it, and the first value stored wins. *)
module Memo = struct
  type t = {
    lock : Mutex.t;
    documents : (string, Consensus.t) Hashtbl.t;
    population : Vote.t array;
    variants : Vote.t option array;  (* by authority index in [population] *)
  }

  module Populations = Ephemeron.K1.Make (struct
    type t = Vote.t array

    let equal = ( == )
    let hash (votes : t) =
      if Array.length votes = 0 then 0 else Hashtbl.hash votes.(0).Vote.digest
  end)

  let populations = Populations.create 16
  let populations_lock = Mutex.create ()

  let of_population votes =
    Mutex.protect populations_lock (fun () ->
        match Populations.find_opt populations votes with
        | Some memo -> memo
        | None ->
            let memo =
              {
                lock = Mutex.create ();
                documents = Hashtbl.create 8;
                population = votes;
                variants = Array.make (Array.length votes) None;
              }
            in
            Populations.add populations votes memo;
            memo)

  let first_stored memo ~find ~store compute =
    match Mutex.protect memo.lock find with
    | Some x -> x
    | None ->
        let x = compute () in
        Mutex.protect memo.lock (fun () ->
            match find () with
            | Some first -> first
            | None ->
                store x;
                x)
end

let memo_key ~valid_after ~votes =
  let digests =
    List.sort String.compare
      (List.map (fun (v : Vote.t) -> Crypto.Digest32.raw v.Vote.digest) votes)
  in
  Printf.sprintf "%h|%s" valid_after (String.concat "" digests)

let consensus ~valid_after ~votes = compute_consensus ~valid_after ~votes

let consensus_memo ~(memo : Memo.t) ~valid_after ~votes =
  let key = memo_key ~valid_after ~votes in
  Memo.first_stored memo
    ~find:(fun () -> Hashtbl.find_opt memo.documents key)
    ~store:(Hashtbl.add memo.documents key)
    (fun () -> compute_consensus ~valid_after ~votes)

let variant ~(memo : Memo.t) id =
  Memo.first_stored memo
    ~find:(fun () -> memo.variants.(id))
    ~store:(fun v -> memo.variants.(id) <- Some v)
    (fun () ->
      let v = memo.population.(id) in
      let relays = match Array.to_list v.Vote.relays with [] -> [] | _ :: rest -> rest in
      Vote.create ~authority:id ~authority_fingerprint:v.authority_fingerprint
        ~nickname:v.nickname ~published:v.published ~valid_after:v.valid_after ~relays)
