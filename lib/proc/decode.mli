(** Combinational instruction decoder (shared by the pipeline's ID stage
    and by the QED transformation module, which must parse the original
    instruction to build its transformed counterpart). *)

module C = Sqed_rtl.Circuit

(** Internal ALU operation codes (4 bits wide in the datapath). *)
val alu_add : int
val alu_sub : int
val alu_sll : int
val alu_slt : int
val alu_sltu : int
val alu_xor : int
val alu_srl : int
val alu_sra : int
val alu_or : int
val alu_and : int
val alu_mul : int
val alu_mulh : int
val alu_mulhu : int
val alu_cpyb : int
(** Result is the immediate operand (used by LUI). *)

val alu_div : int
val alu_divu : int
val alu_rem : int
val alu_remu : int

val alu_code_of_rop : Sqed_isa.Insn.rop -> int
val alu_code_of_iop : Sqed_isa.Insn.iop -> int

type ctrl = {
  legal : C.signal;  (** recognized instruction of the supported subset *)
  rd : C.signal;  (** 5-bit destination field *)
  rs1 : C.signal;
  rs2 : C.signal;
  is_r : C.signal;
  is_i : C.signal;
  is_lui : C.signal;
  is_load : C.signal;
  is_store : C.signal;
  uses_rs1 : C.signal;
  uses_rs2 : C.signal;  (** reads rs2's value (R-type operand or store data) *)
  writes_rd : C.signal;  (** legal, writes a register, and rd <> x0 *)
  alu_op : C.signal;  (** 5-bit code *)
  imm : C.signal;  (** XLEN-wide immediate operand (I/S/U as appropriate) *)
}

val decode : C.builder -> Config.t -> C.signal -> ctrl
(** [decode b cfg instr] with [instr] a 32-bit signal. *)
