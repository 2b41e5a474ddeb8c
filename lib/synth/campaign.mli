(** Parallel synthesis campaigns: fans one HPF-CEGIS (or iterative-CEGIS)
    run per original instruction out to a {!Sqed_par.Pool} of worker
    domains.  Each task builds its own solver and term universe (terms are
    domain-local, see {!Sqed_smt.Term}), so tasks share nothing and the
    campaign scales with cores.  Results come back in input order and are
    identical to the sequential path run case by case. *)

type engine = Hpf | Iterative

type case_result = { case : string; result : Engine.result }

val synthesize_all :
  ?engine:engine ->
  ?jobs:int ->
  ?pool:Sqed_par.Pool.t ->
  options:Engine.options ->
  library:Component.t list ->
  string list ->
  case_result list
(** [synthesize_all ~options ~library cases] synthesizes every case in
    parallel.  [?pool] reuses a caller-owned pool; otherwise a fresh pool
    of [?jobs] workers (default {!Sqed_par.Pool.default_jobs}, i.e. the
    [SEPE_JOBS] environment knob) is created for the call.  A crashing
    case aborts the whole campaign (first exception re-raised); use
    {!synthesize_verdicts} for fault-tolerant campaigns. *)

type case_verdict = {
  vcase : string;
  verdict : Engine.result Sqed_resil.Verdict.t;
}

val synthesize_verdicts :
  ?engine:engine ->
  ?jobs:int ->
  ?pool:Sqed_par.Pool.t ->
  ?retries:int ->
  ?task_deadline:float ->
  options:Engine.options ->
  library:Component.t list ->
  string list ->
  case_verdict list
(** Fault-tolerant variant of {!synthesize_all}: runs every case via
    {!Sqed_par.Pool.map_result} (bounded retries, optional soft per-task
    deadline) and reports a per-case verdict instead of dying on the
    first failure — [Failed] for a crash that survived retries,
    [Unknown] when the task's budget was exhausted.  Results come back
    in input order. *)
