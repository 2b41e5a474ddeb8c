(** Crash-safe JSON-lines files: the one append/load discipline behind
    the run ledger ({!History}) and the [lib/resil] checkpoint journal.

    Every record is one JSON value on its own line, written with a
    single buffered write followed by a flush, so a crash can lose at
    most the line being written.  A crash can also leave that line torn
    (no trailing newline); {!open_append} terminates it before the next
    record goes out, so the next record is never fused onto the torn
    bytes, and {!load} drops and counts the torn line instead of
    failing. *)

val open_append : string -> out_channel
(** [open_append path] opens [path] for appending, creating it if
    needed, and first terminates a torn trailing line.  Raises
    [Sys_error] when the file cannot be opened or written. *)

val output : out_channel -> Json.t -> unit
(** Write one record as a single line and flush. *)

val append : string -> Json.t -> unit
(** [append path j] is {!open_append}, {!output} and close in one. *)

val load : (Json.t -> 'a option) -> string -> 'a list * int
(** [load accept path] reads [path] back: the records [accept] maps to
    [Some], oldest first, and the number of non-blank lines dropped
    because they were torn, unparseable or rejected by [accept].  A
    missing file is [([], 0)]. *)
