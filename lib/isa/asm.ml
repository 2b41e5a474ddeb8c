let strip s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

let split_operands s =
  String.split_on_char ',' s |> List.map strip |> List.filter (fun x -> x <> "")

let parse_reg s =
  let s = strip s in
  if String.length s >= 2 && (s.[0] = 'x' || s.[0] = 'X') then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r when r >= 0 && r < 32 -> Ok r
    | _ -> Error (Printf.sprintf "bad register %S" s)
  else Error (Printf.sprintf "bad register %S" s)

let parse_int s =
  match int_of_string_opt (strip s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad immediate %S" s)

(* "imm(xN)" for loads and stores. *)
let parse_mem_operand s =
  let s = strip s in
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
      let imm_str = String.sub s 0 i in
      let reg_str = String.sub s (i + 1) (String.length s - i - 2) in
      Result.bind (parse_int imm_str) (fun imm ->
          Result.map (fun r -> (imm, r)) (parse_reg reg_str))
  | _ -> Error (Printf.sprintf "bad memory operand %S" s)

let rop_of_string s =
  List.find_opt (fun op -> Insn.rop_name op = s) Insn.all_rops

let iop_of_string s =
  List.find_opt (fun op -> Insn.iop_name op = s) Insn.all_iops

let ( let* ) = Result.bind

let parse_insn line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = strip line in
  match String.index_opt line ' ' with
  | None -> Error (Printf.sprintf "cannot parse %S" line)
  | Some i ->
      let mnemonic = String.uppercase_ascii (String.sub line 0 i) in
      let rest = String.sub line i (String.length line - i) in
      let ops = split_operands rest in
      let insn =
        match (rop_of_string mnemonic, iop_of_string mnemonic, mnemonic, ops) with
        | Some op, _, _, [ a; b; c ] ->
            let* rd = parse_reg a in
            let* rs1 = parse_reg b in
            let* rs2 = parse_reg c in
            Ok (Insn.R (op, rd, rs1, rs2))
        | _, Some op, _, [ a; b; c ] ->
            let* rd = parse_reg a in
            let* rs1 = parse_reg b in
            let* imm = parse_int c in
            Ok (Insn.I (op, rd, rs1, imm))
        | _, _, "LUI", [ a; b ] ->
            let* rd = parse_reg a in
            let* imm = parse_int b in
            Ok (Insn.Lui (rd, imm))
        | _, _, "LW", [ a; b ] ->
            let* rd = parse_reg a in
            let* imm, rs1 = parse_mem_operand b in
            Ok (Insn.Lw (rd, rs1, imm))
        | _, _, "SW", [ a; b ] ->
            let* rs2 = parse_reg a in
            let* imm, rs1 = parse_mem_operand b in
            Ok (Insn.Sw (rs2, rs1, imm))
        | _ -> Error (Printf.sprintf "cannot parse %S" line)
      in
      let* insn = insn in
      if Insn.valid insn then Ok insn
      else Error (Printf.sprintf "operand out of range in %S" line)

let parse_program text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let body =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        if strip body = "" then go acc (lineno + 1) rest
        else
          (match parse_insn line with
          | Ok insn -> go (insn :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

