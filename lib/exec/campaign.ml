module Runenv = Protocols.Runenv

(* Batched evaluation of many run specs that differ only in the
   campaign-variable fields.  The vote population is built once and
   shared; every run builds its own environment and simulator. *)

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

type ctx = { base : Runenv.Spec.t; votes : Dirdoc.Vote.t array }

let create ?votes (base : Runenv.Spec.t) =
  { base; votes = (Runenv.of_spec ?votes base).Runenv.votes }

let base_spec ctx = ctx.base
let digest ctx plan = Runenv.Spec.digest (spec_of ~base:ctx.base plan)

let env_of ctx plan = Runenv.of_spec ~votes:ctx.votes (spec_of ~base:ctx.base plan)

let map ?(jobs = 1) ?votes ~base f items =
  let ctx = create ?votes base in
  Pool.map ~jobs (f ctx) items
