(** Pure differential engine over archived run payloads.

    Compares two runs, or one run against the history a ledger holds,
    metric by metric.  A run payload ({!Report.run_payload}) flattens
    to [exp.<name>.wall_s/clauses/conflicts] per experiment record,
    [run.wall_s], every metrics counter as [counter.<name>] and every
    gauge as [gauge.<name>].  Ledger entries archived before [sepe
    bench] wrote the run payload (experiment records and metrics, no
    top-level [wall_s]) flatten through the same keys.

    History comparisons are gated through a robust noise band: median
    {m \pm} [k]·MAD over the last [window] compatible entries,
    widened to a relative floor so a degenerate MAD (identical history
    values) or a short history does not turn ordinary jitter into a
    false regression.  The band needs at least [min_history] points;
    below that, gated metrics report {!Insufficient} and the sentinel
    passes — archaeology needs history before it can gate.

    Everything here is pure (no clock, no filesystem): callers load
    the ledger with {!History.load} and hand the payloads over. *)

(** {1 Noise bands} *)

type band = {
  bd_median : float;
  bd_mad : float;  (** median absolute deviation from [bd_median] *)
  bd_lo : float;
  bd_hi : float;
  bd_n : int;  (** history points the band was computed over *)
}

val median : float list -> float
(** Median of a non-empty list; [nan] on an empty one. *)

val band : ?k:float -> ?rel_floor:float -> ?abs_floor:float ->
  float list -> band option
(** [band vs] is the noise band of the finite values in [vs]:
    half-width [max (k *. mad) (rel_floor *. |median|) abs_floor]
    around the median.  Defaults: [k = 4.0], [rel_floor = 0.35],
    [abs_floor = 0.0].  [None] when no finite values remain (empty
    history, all-NaN baselines). *)

(** {1 Deltas} *)

(** Where the current value landed relative to the baseline. *)
type verdict =
  | Improved  (** below the band — faster/smaller than history *)
  | Within  (** inside the band, or an ungated two-run delta *)
  | Regressed  (** above the band (or threshold): the sentinel trips *)
  | Insufficient  (** fewer than [min_history] usable baseline points *)
  | Fresh  (** metric absent from the baseline entirely *)

type delta = {
  dl_metric : string;
  dl_base : float;  (** other run's value, or the history median; [nan] when {!Fresh} *)
  dl_cur : float;
  dl_band : band option;  (** present for history comparisons *)
  dl_verdict : verdict;
}

val delta_pct : delta -> float option
(** Relative change [(cur - base) / base * 100.], when the base is
    finite and nonzero. *)

val metrics_of_payload : Json.t -> (string * float) list
(** Flatten a run payload into named metrics (see the module
    preamble).  Unknown shapes flatten to an empty list. *)

val gated : string -> bool
(** Is this metric in the sentinel's gate set?  Wall seconds, clauses
    and conflicts per experiment plus the whole-run wall — the
    headline performance claims.  Counter deltas are reported but
    never fail a run: too many of them legitimately track workload
    growth. *)

val compare_runs : ?rel_floor:float -> base:Json.t -> cur:Json.t ->
  unit -> delta list
(** Two-run A/B diff: every metric of [cur] against the same metric of
    [base].  Gated metrics more than [rel_floor] (default 0.35) above
    the base are {!Regressed}, more than [rel_floor] below {!Improved};
    everything else {!Within}.  Metrics missing from [base] are
    {!Fresh}. *)

val compare_history : ?k:float -> ?rel_floor:float -> ?abs_floor:float ->
  ?window:int -> ?min_history:int ->
  history:Json.t list -> cur:Json.t -> unit -> delta list
(** [cur] against the noise bands of the last [window] (default 20)
    payloads of [history] (oldest first).  [min_history] (default 2)
    is the fewest baseline points a gated verdict needs;
    [abs_floor] defaults to [1.0] — one second or one unit, below
    which nothing is worth flagging — and [rel_floor] to [0.6],
    wider than the A/B default because the documented fig3 wall
    jitter (39–54s across identical runs, worse under CI load) must
    fit inside the band even while the history is too short for MAD
    to absorb it. *)

val regressions : delta list -> delta list
(** The deltas that should fail a gated run: {!Regressed} verdicts on
    {!gated} metrics. *)

(** {1 The perf gate} *)

type gate = {
  deltas : delta list;  (** {!compare_history} over the compatible entries *)
  compatible : int;  (** entries the bands were computed over *)
  ignored : int;  (** entries skipped for a different kind, label or config *)
}

val gate : history:Json.t list -> cur:Json.t -> gate
(** The perf-regression sentinel shared by [sepe bench --baseline] and
    [sepe runs compare --against-history]: [cur] is a ledger entry
    ({!History.entry}), [history] the ledger entries it is judged
    against (oldest first).  Entries whose kind, label or provenance
    config differs from [cur]'s ({!History.compatible}) are skipped and
    counted; the rest feed {!compare_history} with its default band.  The run
    regressed when {!regressions} of [deltas] is non-empty. *)

val to_string : delta -> string
(** One aligned human-readable line: metric, baseline, current, change
    and verdict. *)
