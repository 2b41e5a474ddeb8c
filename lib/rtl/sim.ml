module Bv = Sqed_bv.Bv

type t = {
  circuit : Circuit.t;
  state : (int, Bv.t) Hashtbl.t; (* register signal -> current value *)
  vals : Bv.t option array; (* per-cycle node values *)
  reg_by_name : (string, int) Hashtbl.t;
  mutable last_outputs : (string * Bv.t) list;
}

let create ?(initial = fun _ -> None) circuit =
  let state = Hashtbl.create 64 in
  let reg_by_name = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match Circuit.node circuit r with
      | Node.Reg rg ->
          let w = Circuit.node_width circuit r in
          let v =
            match rg.Node.init with
            | Node.Const_init v -> v
            | Node.Symbolic_init name -> (
                match initial name with
                | Some v ->
                    if Bv.width v <> w then
                      invalid_arg
                        (Printf.sprintf "Sim: bad width for initial %s" name);
                    v
                | None -> Bv.zero w)
          in
          Hashtbl.replace state r v;
          Hashtbl.replace reg_by_name rg.Node.reg_name r
      | _ -> assert false)
    (Circuit.registers circuit);
  {
    circuit;
    state;
    vals = Array.make (Circuit.num_nodes circuit) None;
    reg_by_name;
    last_outputs = [];
  }

let eval_node t env s =
  let value x =
    match t.vals.(x) with
    | Some v -> v
    | None -> assert false (* index order is an evaluation order *)
  in
  match Circuit.node t.circuit s with
  | Node.Input (name, w) -> (
      match List.assoc_opt name env with
      | Some v ->
          if Bv.width v <> w then
            invalid_arg (Printf.sprintf "Sim: bad width for input %s" name);
          v
      | None -> failwith (Printf.sprintf "Sim: missing input %s" name))
  | Node.Const v -> v
  | Node.Unop (Node.Not, x) -> Bv.lognot (value x)
  | Node.Unop (Node.Neg, x) -> Bv.neg (value x)
  | Node.Binop (op, x, y) -> (
      let a = value x and b = value y in
      match op with
      | Node.And -> Bv.logand a b
      | Node.Or -> Bv.logor a b
      | Node.Xor -> Bv.logxor a b
      | Node.Add -> Bv.add a b
      | Node.Sub -> Bv.sub a b
      | Node.Mul -> Bv.mul a b
      | Node.Udiv -> Bv.udiv a b
      | Node.Urem -> Bv.urem a b
      | Node.Eq -> Bv.of_bool (Bv.equal a b)
      | Node.Ult -> Bv.of_bool (Bv.ult a b)
      | Node.Slt -> Bv.of_bool (Bv.slt a b)
      | Node.Shl -> Bv.shl_bv a b
      | Node.Lshr -> Bv.lshr_bv a b
      | Node.Ashr -> Bv.ashr_bv a b
      | Node.Concat -> Bv.concat a b)
  | Node.Ite (c, x, y) -> if Bv.is_zero (value c) then value y else value x
  | Node.Extract (hi, lo, x) -> Bv.extract ~hi ~lo (value x)
  | Node.Zext (w, x) -> Bv.zext (value x) w
  | Node.Sext (w, x) -> Bv.sext (value x) w
  | Node.Reg _ -> Hashtbl.find t.state s

let cycle t env =
  let n = Circuit.num_nodes t.circuit in
  Array.fill t.vals 0 n None;
  for s = 0 to n - 1 do
    t.vals.(s) <- Some (eval_node t env s)
  done;
  let outs =
    List.map
      (fun (name, s) ->
        match t.vals.(s) with Some v -> (name, v) | None -> assert false)
      (Circuit.outputs t.circuit)
  in
  (* Clock edge: commit next-values. *)
  List.iter
    (fun r ->
      match Circuit.node t.circuit r with
      | Node.Reg rg -> (
          match t.vals.(rg.Node.next) with
          | Some v -> Hashtbl.replace t.state r v
          | None -> assert false)
      | _ -> assert false)
    (Circuit.registers t.circuit);
  t.last_outputs <- outs;
  outs

let reg_value t name =
  match Hashtbl.find_opt t.reg_by_name name with
  | Some r -> Hashtbl.find t.state r
  | None -> failwith (Printf.sprintf "Sim: no register %S" name)

let run t cycles = List.map (cycle t) cycles
