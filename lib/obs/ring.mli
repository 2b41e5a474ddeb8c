(** Bounded per-domain rings and the recorder clock: the one storage
    mechanism under {!Trace}, {!Log} and {!Sampler}.

    A ring family ({!t}) gives every domain that pushes into it its own
    fixed-capacity ring, created on the domain's first {!local} call
    and registered in a global list so the rings of finished domains
    stay readable.  A push takes no lock and allocates nothing (the
    backing array is allocated once, on the first push); once a ring
    is full each push overwrites its oldest entry, so the newest
    [capacity] entries survive.  Each per-domain ring also carries a
    small piece of caller state (span depth, live sampler values).

    The family's overwrites are published to its [obs.<name>.dropped]
    counter by {!publish_dropped}, which the payload and trace-export
    builders call.  {!epoch} is the one clock every recorder timestamp
    and the run's wall time are measured from. *)

type ('a, 's) t
(** A ring family holding entries of type ['a], with per-domain state
    of type ['s]. *)

type ('a, 's) local
(** The calling domain's ring of a family. *)

val create : string -> capacity:int -> (unit -> 's) -> ('a, 's) t
(** [create name ~capacity init] makes a family whose rings keep
    [capacity] entries each and start their state with [init ()].
    Registers the [obs.<name>.dropped] counter.  Call at module-init
    time. *)

val local : ('a, 's) t -> ('a, 's) local
(** The calling domain's ring (one domain-local lookup). *)

val state : ('a, 's) local -> 's
(** The ring's per-domain state. *)

val dom : ('a, 's) local -> int
(** The id of the domain that owns the ring. *)

val pushed : ('a, 's) local -> int
(** Entries pushed since the last {!reset}, overwritten ones included. *)

val push : ('a, 's) local -> 'a -> unit
(** Append an entry, overwriting the oldest one when the ring is full. *)

val snapshot : ('a, 's) t -> (int * 'a list) list
(** The kept entries of every non-empty ring, oldest first, paired with
    the owning domain id and sorted by it. *)

val dropped : ('a, 's) t -> int
(** Entries overwritten since the last {!reset}, summed over the
    family's rings: pushes minus capacity, per ring. *)

val publish_dropped : unit -> unit
(** Add every family's overwrites since the last publication to its
    [obs.<name>.dropped] counter. *)

val reset : ('a, 's) t -> unit
(** Empty every ring of the family, restart its state from [init ()]
    and restart the {!epoch} clock. *)

val epoch : unit -> float
(** Start of the recorder clock, in [Unix.gettimeofday] seconds:
    process start, or the last {!reset}. *)
