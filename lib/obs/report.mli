(** The run payload — one machine-readable schema for every
    subcommand — and the self-contained per-run HTML report.

    {!run_payload} is the one payload builder: [sepe --report] writes
    it as the report's [run.json] sidecar, [sepe --ledger] archives it
    and [sepe bench --json] writes it to a file.  It snapshots the
    whole flight recorder — metrics registry (with the {!Ring} drop
    counters published), sampler series, log-ring tail — together with
    what the drivers noted for the run: per-case verdict rows
    ({!note_case}), per-experiment records ({!note_experiment}) and the
    solver configuration stamp ({!set_config}).  {!write} renders the
    same data as a single HTML file with no external assets: stat
    tiles, inline-SVG sparklines per sampler series, the phase-timer
    table, histogram summaries, the verdict table and the log tail.

    Rows and records are plain data pushed by the campaign drivers
    ([lib/exp], [lib/synth], the CLIs) — the dependency points that way
    because [lib/resil] links against this library, not the reverse. *)

(** Per-case outcome, mirroring [lib/resil] verdicts plus the
    checkpoint-resume case. *)
type status = Ok | Unknown | Failed | Skipped

type case_row = {
  rc_key : string;  (** stable case key, e.g. the journal key *)
  rc_status : status;
  rc_detail : string;  (** human-readable verdict detail *)
  rc_dur : float;  (** seconds; 0 when unknown (e.g. resumed) *)
}

val note_case : case_row -> unit
(** Append a row to the run's verdict table. Thread-safe. *)

val note_experiment :
  name:string -> wall_s:float -> clauses:int -> conflicts:int -> unit
(** Append an experiment of a [sepe bench] run, with the SAT work
    attributed to it, to the run's experiment list. Thread-safe. *)

val set_config : (string * Json.t) list -> unit
(** Set the run's configuration stamp, the payload's [config] object
    (by convention the ledger provenance config). *)

val run_payload : ?title:string -> ?cmdline:string -> unit -> Json.t
(** The run payload ([schema sepe.flight/1]): [title], [cmdline],
    [generated_unix_s], [wall_s] (seconds since {!Ring.epoch}),
    [config], [experiments] ([{name, wall_s, clauses, conflicts}]
    records), [metrics], [samples], [cases] and [log_tail]. *)

val write :
  ?title:string -> ?cmdline:string -> ?history:Json.t list ->
  path:string -> unit -> string
(** Write the HTML report to [path] and the {!run_payload} sidecar next
    to it (same path with a [.json] extension); returns the sidecar
    path.  [history] (ledger entries, oldest first) adds a cross-run
    section: per-metric sparklines across the archived runs with this
    run appended, noise-band verdicts from {!Diff}, regression rows
    highlighted. *)

val reset : unit -> unit
(** Drop the noted cases, experiments and configuration. Test helper. *)
