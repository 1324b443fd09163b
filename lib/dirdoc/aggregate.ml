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

(* Popular vote over a sorted array prefix: the most common value
   wins, and a count tie goes to the larger value (Figure 2) because a
   later run wins on equal counts. *)
let popular_prefix ~compare a k =
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

(* The tests' reference model buckets listings into a [Hashtbl] of
   lists and rescans each bucket per flag/property with [List.filter] /
   [List.sort] / [List.nth].  [Vote.create] already sorts each vote's
   relays by fingerprint and rejects duplicates, so the votes can
   instead be merged like sorted runs: one cursor per vote, each merge
   step collects every listing of the smallest current fingerprint into
   fixed scratch arrays (at most one listing per vote) and aggregates
   them in place — no table, no ref-lists, no per-property rescans of
   a list. *)
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
      let auths = Array.make n_votes 0 in
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
            if (not !found) || String.compare fp !min_fp < 0 then begin
              min_fp := fp;
              found := true
            end
          end
        done;
        if not !found then running := false
        else begin
          let k = ref 0 in
          for i = 0 to n_votes - 1 do
            let relays = votes.(i).Vote.relays in
            if
              cursor.(i) < Array.length relays
              && String.equal relays.(cursor.(i)).Relay.fingerprint !min_fp
            then begin
              auths.(!k) <- votes.(i).Vote.authority;
              rels.(!k) <- relays.(cursor.(i));
              incr k;
              cursor.(i) <- cursor.(i) + 1
            end
          done;
          let k = !k in
          if k >= threshold then begin
            (* Nickname: the listing vote with the largest authority id
               (ids are distinct, checked above). *)
            let best = ref 0 in
            for i = 1 to k - 1 do
              if auths.(i) > auths.(!best) then best := i
            done;
            let nickname = rels.(!best).Relay.nickname in
            for i = 0 to k - 1 do
              flag_sets.(i) <- rels.(i).Relay.flags;
              versions.(i) <- rels.(i).Relay.version;
              protos.(i) <- rels.(i).Relay.protocols;
              policies.(i) <- rels.(i).Relay.exit_policy
            done;
            (* Flags: strict majority of listing votes; ties unset. *)
            let flags = Flags.majority flag_sets k in
            sort_prefix ~compare:Version.compare versions k;
            sort_prefix ~compare:String.compare protos k;
            sort_prefix ~compare:Exit_policy.compare policies k;
            let version = popular_prefix ~compare:Version.compare versions k in
            let protocols = popular_prefix ~compare:String.compare protos k in
            let exit_policy =
              popular_prefix ~compare:Exit_policy.compare policies k
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
            sort_prefix ~compare:Int.compare bws !m;
            let bandwidth = bws.((!m - 1) / 2) in
            entries :=
              {
                Consensus.fingerprint = !min_fp;
                nickname;
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
   is the one a fresh merge would build.  A memo belongs to a vote
   population and is found by the array's physical identity in an
   ephemeron table, so it is collected with the array.  Lookups and
   inserts hold the memo's lock, the merge runs outside it, and the
   first document stored for a key wins. *)
module Memo = struct
  type t = { lock : Mutex.t; documents : (string, Consensus.t) Hashtbl.t }

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
            let memo = { lock = Mutex.create (); documents = Hashtbl.create 8 } in
            Populations.add populations votes memo;
            memo)
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
  let find () = Hashtbl.find_opt memo.documents key in
  match Mutex.protect memo.lock find with
  | Some c -> c
  | None ->
      let c = compute_consensus ~valid_after ~votes in
      Mutex.protect memo.lock (fun () ->
          match find () with
          | Some first -> first
          | None ->
              Hashtbl.add memo.documents key c;
              c)
