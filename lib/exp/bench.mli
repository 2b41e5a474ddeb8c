(** The paper-experiment harness behind [sepe bench]: Fig. 3 ({!Fig3}),
    Table 1, Fig. 4 and the E4–E7 / portfolio experiments of DESIGN.md's
    experiment index, each timed and attributed its SAT work. *)

val names : string list
(** The experiments in run order: [fig3], [table1], [fig4], [classical],
    [ablation], [scaling], [crosscore], [portfolio]. *)

val config_json : fast:bool -> jobs:int -> (string * Sqed_obs.Json.t) list
(** The provenance config stamp of a run: [jobs] ([<= 0] means
    [Pool.default_jobs ()]), [fast] and the solver switches in force
    ([simplify], [aig], [portfolio], [portfolio_deterministic]), in that
    order.  Ledger entries are config-compatible when these objects are
    structurally equal. *)

val run :
  ?fast:bool ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?handicap:float ->
  string list ->
  Sqed_resil.Verdict.summary
(** [run names] runs the named experiments ({!names}; all of them when
    [names] is empty) in order and returns the aggregated campaign
    verdict.  Each experiment (and each portfolio arm) notes one
    record — wall seconds and the clauses and conflicts it added — in
    the run payload ({!Sqed_obs.Report.note_experiment}).  Clause and conflict
    counts are read from the metrics registry, so the caller must enable
    {!Sqed_obs.Metrics}.  [?checkpoint] journals and resumes fig3 and
    table1; [?handicap F] sleeps [F] times each experiment's wall before
    its record is cut, inflating [wall_s] deterministically (for testing
    the regression sentinel). *)
