module Bv = Sqed_bv.Bv

type signal = int

type builder = {
  bname : string;
  mutable nodes : Node.t array;
  mutable widths : int array;
  mutable n : int;
  mutable outs : (string * signal) list; (* reverse order *)
  mutable ins : (string * int) list; (* reverse order *)
  names : (string, unit) Hashtbl.t; (* input/output/register name uniqueness *)
}

let create bname =
  {
    bname;
    nodes = Array.make 64 (Node.Const (Bv.zero 1));
    widths = Array.make 64 0;
    n = 0;
    outs = [];
    ins = [];
    names = Hashtbl.create 64;
  }

let claim_name b kind name =
  let key = kind ^ ":" ^ name in
  if Hashtbl.mem b.names key then
    failwith (Printf.sprintf "Circuit %s: duplicate %s name %S" b.bname kind name);
  Hashtbl.add b.names key ()

let push b node w =
  if b.n = Array.length b.nodes then begin
    let nodes = Array.make (2 * b.n) (Node.Const (Bv.zero 1)) in
    let widths = Array.make (2 * b.n) 0 in
    Array.blit b.nodes 0 nodes 0 b.n;
    Array.blit b.widths 0 widths 0 b.n;
    b.nodes <- nodes;
    b.widths <- widths
  end;
  b.nodes.(b.n) <- node;
  b.widths.(b.n) <- w;
  b.n <- b.n + 1;
  b.n - 1

let width b s =
  if s < 0 || s >= b.n then invalid_arg "Circuit.width: bad signal";
  b.widths.(s)

let input b name w =
  claim_name b "input" name;
  b.ins <- (name, w) :: b.ins;
  push b (Node.Input (name, w)) w

let const b v = push b (Node.Const v) (Bv.width v)
let consti b ~width n = const b (Bv.of_int ~width n)
let vdd b = consti b ~width:1 1
let gnd b = consti b ~width:1 0

let check2 b op x y =
  if width b x <> width b y then
    invalid_arg
      (Printf.sprintf "Circuit.%s: width mismatch (%d vs %d)" op (width b x)
         (width b y))

let binop b op x y =
  check2 b (Node.binop_name op) x y;
  let w =
    match op with
    | Node.Eq | Node.Ult | Node.Slt -> 1
    | Node.Concat -> width b x + width b y
    | _ -> width b x
  in
  push b (Node.Binop (op, x, y)) w

let not_ b x = push b (Node.Unop (Node.Not, x)) (width b x)
let neg b x = push b (Node.Unop (Node.Neg, x)) (width b x)
let and_ b x y = binop b Node.And x y
let or_ b x y = binop b Node.Or x y
let xor b x y = binop b Node.Xor x y
let add b x y = binop b Node.Add x y
let sub b x y = binop b Node.Sub x y
let mul b x y = binop b Node.Mul x y
let udiv b x y = binop b Node.Udiv x y
let urem b x y = binop b Node.Urem x y
let eq b x y = binop b Node.Eq x y
let neq b x y = not_ b (eq b x y)
let ult b x y = binop b Node.Ult x y
let ule b x y = not_ b (ult b y x)
let slt b x y = binop b Node.Slt x y
let shl b x y = binop b Node.Shl x y
let lshr b x y = binop b Node.Lshr x y
let ashr b x y = binop b Node.Ashr x y

let concat b hi lo =
  let w = width b hi + width b lo in
  push b (Node.Binop (Node.Concat, hi, lo)) w

let mux b sel t f =
  if width b sel <> 1 then invalid_arg "Circuit.mux: selector width <> 1";
  check2 b "mux" t f;
  push b (Node.Ite (sel, t, f)) (width b t)

let extract b ~hi ~lo x =
  if lo < 0 || hi < lo || hi >= width b x then
    invalid_arg "Circuit.extract: bad bounds";
  push b (Node.Extract (hi, lo, x)) (hi - lo + 1)

let bit b x i = extract b ~hi:i ~lo:i x

let zext b x w =
  if w < width b x then invalid_arg "Circuit.zext: smaller target";
  if w = width b x then x else push b (Node.Zext (w, x)) w

let sext b x w =
  if w < width b x then invalid_arg "Circuit.sext: smaller target";
  if w = width b x then x else push b (Node.Sext (w, x)) w

let reduce_and b = function
  | [] -> vdd b
  | x :: xs -> List.fold_left (and_ b) x xs

let onehot_mux b cases ~default =
  List.fold_right (fun (sel, v) acc -> mux b sel v acc) cases default

let reg b ~name ~init ~width:w =
  claim_name b "register" name;
  push b (Node.Reg { Node.reg_name = name; init; next = -1 }) w

let reg_const b ~name ~width v =
  reg b ~name ~init:(Node.Const_init (Bv.of_int ~width v)) ~width

let connect b r next =
  match b.nodes.(r) with
  | Node.Reg rg ->
      if rg.Node.next >= 0 then
        failwith
          (Printf.sprintf "Circuit %s: register %s connected twice" b.bname
             rg.Node.reg_name);
      if width b r <> width b next then
        invalid_arg
          (Printf.sprintf "Circuit.connect: width mismatch for %s"
             rg.Node.reg_name);
      rg.Node.next <- next
  | _ -> invalid_arg "Circuit.connect: not a register"

type memory = { read : signal -> signal; words : signal array }

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  go 0

let memory b ~name ~words ~word_width ~init ~wr_en ~wr_addr ~wr_data =
  let abits = log2_exact words in
  if abits < 0 then invalid_arg "Circuit.memory: words must be a power of two";
  if abits = 0 then invalid_arg "Circuit.memory: need at least 2 words";
  if width b wr_addr <> abits then
    invalid_arg "Circuit.memory: write address width mismatch";
  if width b wr_data <> word_width then
    invalid_arg "Circuit.memory: write data width mismatch";
  if width b wr_en <> 1 then invalid_arg "Circuit.memory: enable width <> 1";
  let word_init i =
    match init with
    | Node.Const_init v -> Node.Const_init v
    | Node.Symbolic_init base -> Node.Symbolic_init (Printf.sprintf "%s_%d" base i)
  in
  let word_regs =
    Array.init words (fun i ->
        reg b
          ~name:(Printf.sprintf "%s[%d]" name i)
          ~init:(word_init i) ~width:word_width)
  in
  Array.iteri
    (fun i r ->
      let here = eq b wr_addr (consti b ~width:abits i) in
      let wr = and_ b wr_en here in
      connect b r (mux b wr wr_data r))
    word_regs;
  let read addr =
    if width b addr <> abits then
      invalid_arg "Circuit.memory: read address width mismatch";
    let rec tree lo n sel_bit =
      (* Balanced mux tree over the address bits. *)
      if n = 1 then word_regs.(lo)
      else
        let half = n / 2 in
        let low = tree lo half (sel_bit - 1) in
        let high = tree (lo + half) half (sel_bit - 1) in
        mux b (bit b addr sel_bit) high low
    in
    tree 0 words (abits - 1)
  in
  { read; words = word_regs }

let output b name s =
  claim_name b "output" name;
  b.outs <- (name, s) :: b.outs

(* -- finalized circuits -------------------------------------------------- *)

type t = {
  cname : string;
  cnodes : Node.t array;
  cwidths : int array;
  couts : (string * signal) list;
  cins : (string * int) list;
  cregs : signal list;
}

let finalize b =
  let cnodes = Array.sub b.nodes 0 b.n in
  let cregs = ref [] in
  Array.iteri
    (fun i n ->
      match n with
      | Node.Reg rg ->
          if rg.Node.next < 0 then
            failwith
              (Printf.sprintf "Circuit %s: register %s never connected"
                 b.bname rg.Node.reg_name);
          cregs := i :: !cregs
      | _ -> ())
    cnodes;
  {
    cname = b.bname;
    cnodes;
    cwidths = Array.sub b.widths 0 b.n;
    couts = List.rev b.outs;
    cins = List.rev b.ins;
    cregs = List.rev !cregs;
  }

let name c = c.cname
let node c s = c.cnodes.(s)
let node_width c s = c.cwidths.(s)
let num_nodes c = Array.length c.cnodes
let inputs c = c.cins
let outputs c = c.couts

let output_signal c n =
  match List.assoc_opt n c.couts with
  | Some s -> s
  | None -> failwith (Printf.sprintf "Circuit %s: no output %S" c.cname n)

let registers c = c.cregs

let stats c =
  let state_bits =
    List.fold_left (fun acc r -> acc + c.cwidths.(r)) 0 c.cregs
  in
  Printf.sprintf "%s: %d nodes, %d inputs, %d outputs, %d registers (%d state bits)"
    c.cname (num_nodes c) (List.length c.cins) (List.length c.couts)
    (List.length c.cregs) state_bits
