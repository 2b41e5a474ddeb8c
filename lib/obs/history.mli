(** Persistent cross-run ledger: an append-only, torn-line-tolerant
    JSONL archive of run records.

    Every archived run is one JSON object per line (schema
    {!schema} = [sepe.ledger/1]) wrapping the run's machine-readable
    payload — the {!Report.run_payload} of any subcommand, [sepe bench]
    included — together with environment {!provenance}: git commit and
    dirty flag, hostname, core count, OCaml version and the solver
    configuration in force.  The file is written and read through {!Jsonl} (the same
    discipline as the [lib/resil] checkpoint journal), so a crash can
    lose at most the line being written, and a ledger shared by
    interrupted runs stays safe to keep appending to.

    The ledger is the substrate for the differential engine ({!Diff})
    and the perf-regression sentinel ({!Diff.gate}): [sepe bench
    --baseline] compares the run it just finished against the
    compatible tail of a ledger, and [sepe runs list|show|compare]
    browse one from the shell. *)

val schema : string
(** The entry schema tag, [sepe.ledger/1]. *)

(** {1 Building entries} *)

val provenance : config:(string * Json.t) list -> unit -> Json.t
(** Environment stamp for a new entry: [git_commit] (short hash, or
    ["unknown"] outside a work tree), [git_dirty], [hostname], [cores]
    (recommended domain count), [ocaml] (compiler version) and the
    caller-supplied [config] object — by convention the
    [{jobs, fast, simplify, aig, portfolio}] knobs that make two runs
    comparable. *)

val entry :
  kind:string -> label:string -> provenance:Json.t -> run:Json.t -> Json.t
(** Wrap a run payload as one ledger entry: [kind] is the producing
    binary (["bench"] or ["sepe"]), [label] the experiment or
    subcommand, [run] the machine-readable payload archived verbatim.
    The entry is stamped with the current wall-clock time. *)

(** {1 The file} *)

val append : string -> Json.t -> unit
(** [append path e] appends [e] as one line to [path] ({!Jsonl.append}).
    Raises [Sys_error] when the file cannot be opened or written. *)

type loaded = {
  entries : Json.t list;  (** parseable entries, oldest first *)
  dropped : int;  (** torn or malformed lines silently skipped *)
}

val load : string -> loaded
(** Read a ledger back.  A missing file is an empty ledger; a torn
    trailing line (or any unparseable line) is dropped and counted, not
    an error. *)

(** {1 Entry accessors} *)

val run_of : Json.t -> Json.t option
(** The archived run payload of an entry. *)

val compatible : Json.t -> Json.t -> bool
(** [compatible a b] is true when both entries have the same [kind] and
    [label] and carry structurally equal provenance configs — the gate
    that keeps the sentinel from comparing, say, a [--no-aig] run
    against an AIG baseline, or a [fig3] run against a
    [fig3+portfolio] one.  Entries without a config are never
    compatible. *)

val summary_line : int -> Json.t -> string
(** One human-readable line for [sepe runs list]: index, UTC
    timestamp, kind/label, git stamp and headline wall seconds. *)
