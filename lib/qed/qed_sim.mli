(** Concrete QED testing (the post-silicon technique SQED symbolizes):
    drive randomized original-instruction programs through the QED-top
    circuit simulation and watch for property violations.

    This gives a falsification mode that needs no solver — useful both as
    a sanity oracle for the formal models (the unmutated design must never
    report [bad]) and to contrast concrete QED's probabilistic detection
    with BMC's exhaustive search, mirroring the QED -> SQED lineage of the
    paper's Section 2. *)

module Bv = Sqed_bv.Bv
module Insn = Sqed_isa.Insn

type run = {
  program : Insn.t list;  (** the original instructions injected *)
  cycles : int;
  bad_fired : bool;
  reached_ready : bool;  (** ended in a consistent QED-ready state *)
}

val random_original : Qed_top.t -> Random.State.t -> Insn.t
(** A random legal original instruction for the model's partition (fields
    in O, loads/stores confined to the original memory half). *)

type campaign = {
  runs : int;
  detections : int;
  first_detection : int option;  (** run index of the first [bad] *)
  total_cycles : int;
}

val campaign :
  ?bug:Sqed_proc.Bug.t ->
  ?table:Equiv_table.t ->
  ?check_mem:bool ->
  scheme:Partition.scheme ->
  seed:int ->
  runs:int ->
  program_length:int ->
  Sqed_proc.Config.t ->
  campaign
(** Run [runs] random programs of the given length on a fresh model. *)
