(** Symbolic single-instruction semantics (the formal semantic models
    φ_instr of Section 4.1), as QF_BV terms parameterised by XLEN.

    Immediates are 12-bit terms (20-bit for LUI) so that the synthesizer
    can treat them as free {e internal attributes}; they are sign-extended
    (or truncated, when XLEN < 12) exactly like the concrete interpreter
    does. *)

module Term = Sqed_smt.Term

val ext_imm : xlen:int -> Term.t -> Term.t
(** Sign-extend / truncate a 12-bit immediate term to XLEN. *)

val shamt_mask : xlen:int -> Term.t -> Term.t
(** Keep only the low log2(XLEN) bits of a shift amount, zero-extended to
    XLEN. *)

val r_result : xlen:int -> Insn.rop -> Term.t -> Term.t -> Term.t
(** [r_result ~xlen op rs1 rs2]: the value written to rd. *)

val i_result : xlen:int -> Insn.iop -> Term.t -> imm:Term.t -> Term.t
(** [i_result ~xlen op rs1 ~imm] with [imm] of width 12. *)

val lui_result : xlen:int -> Term.t -> Term.t
(** [lui_result ~xlen imm20] with [imm20] of width 20. *)

val result :
  xlen:int -> Insn.t -> rs1:Term.t -> rs2:Term.t -> Term.t option
(** Register result of a concrete instruction applied to symbolic source
    values ([None] for loads and stores, whose result involves memory). *)
