(** QF_BV satisfiability on top of {!Bitblast} and {!Sqed_sat.Sat}.

    A solver instance accumulates assertions (incremental: more assertions
    may be added after a [check]).  Checking under assumptions does not
    retract anything.

    Every instance runs the SAT core's CNF preprocessor ({!Sqed_sat.Simplify})
    by default: the bit-blaster freezes each literal it hands out, so the
    simplifier only ever eliminates gate-internal variables and
    incremental use (more assertions, assumptions, further [check]s) stays
    sound.  Opt out per instance with [~simplify:false] or globally with
    {!simplify_default}.

    Bit-blasting goes through the {!Aig} gate layer by default (structural
    hashing, rewriting, polarity-aware CNF conversion); [~aig:false] or
    {!aig_default} falls back to direct Tseitin emission. *)

module Bv = Sqed_bv.Bv

type t

type result = Sat | Unsat | Unknown

val simplify_default : bool ref
(** Default for [create]'s [?simplify] (initially [true]); the CLI and
    bench `--no-simplify` flag sets it to [false] for the whole run. *)

val aig_default : bool ref
(** Default for [create]'s [?aig] (initially [true]); the CLI and bench
    `--no-aig` flag sets it to [false] for the whole run. *)

val portfolio_default : int ref
(** Default for [create]'s [?portfolio] (initially [1], i.e. single
    engine); the CLI and bench `--portfolio K` flag raises it for the
    whole run. *)

val portfolio_deterministic_default : bool ref
(** Default for [create]'s [?portfolio_deterministic] (initially
    [false]); the `--portfolio-deterministic` flag turns the portfolio's
    reproducible single-domain round-robin mode on for the whole run. *)

val create :
  ?simplify:bool ->
  ?aig:bool ->
  ?portfolio:int ->
  ?portfolio_deterministic:bool ->
  unit ->
  t
(** [portfolio] is the portfolio width this solver may use (clamped to
    at least 1).  Width alone changes nothing: a [check] dispatches to
    {!Sqed_sat.Portfolio.solve} only while {!set_portfolio_active} has
    gated the portfolio on, so callers decide per query whether the
    clone/spawn overhead is worth it (the BMC engine enables it past a
    depth threshold). *)

val set_portfolio_active : t -> bool -> unit
(** Per-query portfolio gate (off on a fresh solver).  No-op unless the
    solver was created with a portfolio width above 1. *)

val last_unknown : t -> Sqed_resil.Budget.reason option
(** Why the most recent {!check} returned [Unknown]: the SAT core's
    {!Sqed_sat.Sat.last_interrupt}, or the budget-exhaustion reason when
    encoding work raised before the search started.  [None] after
    [Sat]/[Unsat]. *)

val assert_ : t -> Term.t -> unit
(** Assert a width-1 term.  Under an installed {!set_budget} (or an
    ambient per-task budget) this may raise
    {!Sqed_resil.Budget.Exhausted} mid-encoding; the partial work is
    remembered and finished automatically by the next {!check}. *)

val check :
  ?assumptions:Term.t list -> ?max_conflicts:int -> ?deadline:float -> t -> result
(** [deadline] is an absolute wall-clock instant bounding the whole
    call — bit-blasting of assumptions and pending asserts as well as
    the CDCL search (encoding dominates on blast-heavy instances).
    Budget exhaustion anywhere in the call yields [Unknown]; the solver
    stays reusable (incremental state intact, unfinished encoding
    completed on the next call). *)

val set_budget : t -> Sqed_resil.Budget.t -> unit
(** Install a budget governing every subsequent [assert_]/[check]
    ({!Sqed_resil.Budget.unlimited} to clear). *)

val budget : t -> Sqed_resil.Budget.t

val model_var : t -> Term.t -> Bv.t
(** Value of a variable term in the last model.  Variables the solver never
    saw evaluate to zero.  Raises [Failure] without a model. *)

val model_value : t -> Term.t -> Bv.t
(** Evaluate an arbitrary term under the last model's variable values. *)

val num_clauses : t -> int
val num_vars : t -> int

val to_dimacs : t -> string
(** The bit-blasted clause database in DIMACS format (assertions only),
    for archiving hard instances and external cross-checks. *)

val stats : t -> Sqed_sat.Sat.stats

val check_valid : ?max_conflicts:int -> Term.t -> result * (string * Bv.t) list
(** One-shot validity check of a width-1 term: returns [Unsat] if the term
    is valid (its negation has no model), or [Sat] with a countermodel
    (variable assignments) otherwise. *)
