module Runenv = Protocols.Runenv

type protocol = Current | Synchronous | Ours

let protocol_name = function
  | Current -> "current"
  | Synchronous -> "synchronous"
  | Ours -> "ours"

let protocol_of_name = function
  | "current" -> Some Current
  | "synchronous" | "sync" -> Some Synchronous
  | "ours" | "partial" -> Some Ours
  | _ -> None

type t = { protocol : protocol; spec : Runenv.Spec.t }

let key t = protocol_name t.protocol ^ ":" ^ Runenv.Spec.digest t.spec

type outcome = {
  key : string;
  success : bool;
  success_latency : float option;
  decided_at_latest : float option;
  total_bytes : int;
}

let outcome job (report : Runenv.report) =
  {
    key = key job;
    success = report.Runenv.success;
    success_latency = report.Runenv.success_latency;
    decided_at_latest = report.Runenv.decided_at_latest;
    total_bytes = report.Runenv.total_bytes;
  }
