module Runenv = Protocols.Runenv

(* Batched evaluation of many run specs that differ only in the
   campaign-variable fields.  Everything else — the vote population,
   keyring, topology, and (via the per-context arena) the simulator
   heaps themselves — is built once per worker and reused across the
   whole batch. *)

type plan = {
  attacks : Runenv.attack list;
  behaviors : Runenv.behavior array option;
  fault_plan : Tor_sim.Fault.plan option;
}

let plan_of_spec (s : Runenv.Spec.t) =
  {
    attacks = s.Runenv.Spec.attacks;
    behaviors = s.Runenv.Spec.behaviors;
    fault_plan = s.Runenv.Spec.fault_plan;
  }

let spec_of ~base plan =
  {
    base with
    Runenv.Spec.attacks = plan.attacks;
    behaviors = plan.behaviors;
    fault_plan = plan.fault_plan;
  }

type ctx = {
  base : Runenv.Spec.t;
  env : Runenv.t;
      (* base environment with a private arena installed; [env_of]
         derives every plan's environment from it, so all runs in this
         context share the keyring/topology/votes and reuse the same
         simulator heaps.  The arena makes a ctx single-domain by
         construction: never share one across domains. *)
}

let create ?votes (base : Runenv.Spec.t) =
  let env = Runenv.of_spec ?votes base in
  { base; env = { env with Runenv.arena = Some (Runenv.Arena.create ()) } }

let base_spec ctx = ctx.base
let digest ctx plan = Runenv.Spec.digest (spec_of ~base:ctx.base plan)

let env_of ?(telemetry = false) ctx plan =
  let env =
    Runenv.vary ctx.env ~attacks:plan.attacks ~behaviors:plan.behaviors
      ~fault_plan:plan.fault_plan
  in
  if telemetry then { env with Runenv.telemetry = true } else env

(* Contiguous chunking: worker w gets items [w*n/k, (w+1)*n/k) in
   input order, so the split is deterministic and each context sees a
   prefix-contiguous slice — the same order a sequential run would
   evaluate them in. *)
let chunks ~workers arr =
  let n = Array.length arr in
  List.init workers (fun w ->
      let lo = w * n / workers and hi = (w + 1) * n / workers in
      Array.to_list (Array.sub arr lo (hi - lo)))

let map ?(jobs = 1) ?votes ~base f items =
  if jobs < 1 then invalid_arg "Campaign.map: jobs must be >= 1";
  match items with
  | [] -> []
  | items when jobs = 1 ->
      let ctx = create ?votes base in
      List.map (f ctx) items
  | items ->
      let arr = Array.of_list items in
      let workers = min jobs (Array.length arr) in
      Pool.map ~jobs:workers
        (fun chunk ->
          (* One context — one arena — per chunk; a Pool worker that
             picks up two chunks builds two, which is correct, just
             slightly less reuse. *)
          let ctx = create ?votes base in
          List.map (f ctx) chunk)
        (chunks ~workers arr)
      |> List.concat
