(** Library components for component-based program synthesis (Section 4.1).

    A component is a specification ⟨I, A, O, Φ⟩: register-value inputs [I]
    (width XLEN at synthesis time), internal attributes [A] whose values the
    synthesizer chooses (e.g. a 12-bit immediate), and one output [O].  The
    three classes of the paper:

    - {b NIC} (native instruction class): semantics of one instruction with
      all operands as inputs;
    - {b DIC} (derived instruction class): an I-type instruction whose
      immediate operand became an internal attribute;
    - {b CIC} (composite instruction class): a short fixed instruction
      sequence exposed as a single component (e.g. multiply-by-constant,
      which keeps multiplication tractable for the bit-vector solver).

    Every component also knows how to {!instantiate} itself back into real
    instructions, which is how synthesized programs become the EDSEP-V
    equivalent sequences. *)

module Bv = Sqed_bv.Bv
module Term = Sqed_smt.Term

type cls = NIC | DIC | CIC

type input_kind = Reg | Imm12
(** [Imm12] inputs connect only to 12-bit program inputs (the original
    instruction's immediate field), never to register values. *)

type t = {
  label : string;  (** unique identifier within the library *)
  name : string;
      (** mnemonic of the instruction whose datapath the component
          exercises; used by the paper's [Name(...)] comparisons (the χ
          characteristic function and the input constraint) *)
  cls : cls;
  inputs : input_kind list;
  attrs : int list;  (** widths of the internal attributes *)
  sem : xlen:int -> Term.t list -> Term.t list -> Term.t;
      (** [sem ~xlen inputs attrs] builds Φ's output term. *)
  n_temps : int;
  instantiate :
    xlen:int ->
    dst:int ->
    srcs:[ `Reg of int | `Imm of int ] list ->
    attrs:Bv.t list ->
    temps:int list ->
    Sqed_isa.Insn.t list;
      (** Expand to concrete instructions writing [dst]; [srcs] mirror
          [inputs] ([`Imm] carries the immediate field value for [Imm12]
          inputs); [temps] supplies [n_temps] scratch registers. *)
}

val arity : t -> int
(** Number of register-value inputs. *)

val imm_arity : t -> int

val pp : Format.formatter -> t -> unit

(** {1 Specifications (the original instructions g)} *)

type spec = {
  g_name : string;
  g_inputs : input_kind list;
  g_sem : xlen:int -> Term.t list -> Term.t;
}

val spec_of_rop : Sqed_isa.Insn.rop -> spec
val spec_of_iop : Sqed_isa.Insn.iop -> spec
val spec_input_width : xlen:int -> input_kind -> int
