module Term = Sqed_smt.Term

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  go 0

let ext_imm ~xlen imm =
  if Term.width imm <> 12 then invalid_arg "Semantics.ext_imm: width <> 12";
  if xlen >= 12 then Term.sext imm xlen
  else Term.extract ~hi:(xlen - 1) ~lo:0 imm

let shamt_mask ~xlen amount =
  let bits = log2_exact xlen in
  if bits < 0 then invalid_arg "Semantics.shamt_mask: xlen not a power of two";
  if bits = 0 then Term.of_int ~width:xlen 0
  else Term.zext (Term.extract ~hi:(bits - 1) ~lo:0 amount) xlen

let bool_res ~xlen c = Term.zext c xlen

let mul_high ~xlen ~signed a b =
  let w2 = 2 * xlen in
  let ext = if signed then Term.sext else Term.zext in
  Term.extract ~hi:(w2 - 1) ~lo:xlen (Term.mul (ext a w2) (ext b w2))

(* Signed division/remainder with RISC-V M conventions, built from the
   unsigned operators via sign handling.  x/0 = -1 and x%0 = x; the
   overflow case MIN/-1 falls out of the wraparound of |MIN|. *)
let abs_t ~xlen a =
  Term.ite (Term.slt a (Term.of_int ~width:xlen 0)) (Term.neg a) a

let div_signed ~xlen a b =
  let qu = Term.udiv (abs_t ~xlen a) (abs_t ~xlen b) in
  let zero = Term.of_int ~width:xlen 0 in
  let sign_differs = Term.xor (Term.slt a zero) (Term.slt b zero) in
  let q = Term.ite sign_differs (Term.neg qu) qu in
  Term.ite (Term.eq b zero) (Term.const (Sqed_bv.Bv.ones xlen)) q

let rem_signed ~xlen a b =
  let ru = Term.urem (abs_t ~xlen a) (abs_t ~xlen b) in
  let zero = Term.of_int ~width:xlen 0 in
  Term.ite (Term.slt a zero) (Term.neg ru) ru

let r_result ~xlen op a b =
  match op with
  | Insn.ADD -> Term.add a b
  | Insn.SUB -> Term.sub a b
  | Insn.SLL -> Term.shl a (shamt_mask ~xlen b)
  | Insn.SLT -> bool_res ~xlen (Term.slt a b)
  | Insn.SLTU -> bool_res ~xlen (Term.ult a b)
  | Insn.XOR -> Term.xor a b
  | Insn.SRL -> Term.lshr a (shamt_mask ~xlen b)
  | Insn.SRA -> Term.ashr a (shamt_mask ~xlen b)
  | Insn.OR -> Term.or_ a b
  | Insn.AND -> Term.and_ a b
  | Insn.MUL -> Term.mul a b
  | Insn.MULH -> mul_high ~xlen ~signed:true a b
  | Insn.MULHU -> mul_high ~xlen ~signed:false a b
  | Insn.DIV -> div_signed ~xlen a b
  | Insn.DIVU -> Term.udiv a b
  | Insn.REM -> rem_signed ~xlen a b
  | Insn.REMU -> Term.urem a b

let i_result ~xlen op a ~imm =
  let iv = ext_imm ~xlen imm in
  match op with
  | Insn.ADDI -> Term.add a iv
  | Insn.SLTI -> bool_res ~xlen (Term.slt a iv)
  | Insn.SLTIU -> bool_res ~xlen (Term.ult a iv)
  | Insn.XORI -> Term.xor a iv
  | Insn.ORI -> Term.or_ a iv
  | Insn.ANDI -> Term.and_ a iv
  | Insn.SLLI -> Term.shl a (shamt_mask ~xlen iv)
  | Insn.SRLI -> Term.lshr a (shamt_mask ~xlen iv)
  | Insn.SRAI -> Term.ashr a (shamt_mask ~xlen iv)

let lui_result ~xlen imm20 =
  if Term.width imm20 <> 20 then invalid_arg "Semantics.lui_result: width <> 20";
  if xlen >= 32 then Term.shl (Term.zext imm20 xlen) (Term.of_int ~width:xlen 12)
  else if xlen > 12 then
    Term.concat (Term.extract ~hi:(xlen - 13) ~lo:0 imm20) (Term.of_int ~width:12 0)
  else
    (* All useful bits are shifted out at such narrow widths. *)
    Term.of_int ~width:xlen 0

let imm_term ~imm = Term.of_int ~width:12 imm

let result ~xlen insn ~rs1 ~rs2 =
  match insn with
  | Insn.R (op, _, _, _) -> Some (r_result ~xlen op rs1 rs2)
  | Insn.I (op, _, _, imm) -> Some (i_result ~xlen op rs1 ~imm:(imm_term ~imm))
  | Insn.Lui (_, imm) ->
      Some (lui_result ~xlen (Term.of_int ~width:20 imm))
  | Insn.Lw _ | Insn.Sw _ -> None

