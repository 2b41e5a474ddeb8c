(* Bechamel micro-benchmarks, run by the @bench-micro alias:

   - the substrates: SAT on a small pigeonhole formula, an SMT adder
     proof, pipeline simulation cycles, synthesis topology enumeration
     and wide bit-vector multiplication;
   - the bit-blaster's encoding backends: AIG construction +
     polarity-aware CNF conversion vs direct Tseitin emission, on a fixed
     adder/shifter/multiplier workload (no SAT solving — this isolates
     the encoder, so a regression in gate construction is caught without
     a full fig3 run).

   Prints Bechamel OLS estimates (ns/run) and the aig/direct ratio;
   exits nonzero only if a workload fails. *)

module Config = Sqed_proc.Config
module Synth = Sqed_synth
module Term = Sqed_smt.Term
module Solver = Sqed_smt.Solver
open Bechamel

let sat_php () =
  let module Sat = Sqed_sat.Sat in
  let s = Sat.create () in
  let n = 5 in
  let p = Array.init n (fun _ -> Array.init (n - 1) (fun _ -> Sat.new_var s)) in
  Array.iter
    (fun row -> Sat.add_clause s (Array.to_list (Array.map Sat.pos row)))
    p;
  for h = 0 to n - 2 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Sat.add_clause s [ Sat.neg_of_var p.(i).(h); Sat.neg_of_var p.(j).(h) ]
      done
    done
  done;
  assert (Sat.solve s = Sat.Unsat)

let smt_adder () =
  let s = Solver.create () in
  let x = Term.var "mb_x" 16 and y = Term.var "mb_y" 16 in
  Solver.assert_ s (Term.distinct (Term.add x y) (Term.add y x));
  assert (Solver.check s = Solver.Unsat)

let sim_cycles =
  let c = Sqed_proc.Testbench.circuit Config.small in
  fun () ->
    let sim = Sqed_rtl.Sim.create c in
    let inputs =
      [
        ("instr", Sqed_isa.Encode.encode Sqed_isa.Insn.nop);
        ("instr_valid", Sqed_bv.Bv.one 1);
      ]
    in
    for _ = 1 to 20 do
      ignore (Sqed_rtl.Sim.cycle sim inputs)
    done

let topo_enum () =
  let spec = Synth.Library_.spec "SUB" in
  let ms =
    [
      Synth.Library_.find "NOT"; Synth.Library_.find "ADD";
      Synth.Library_.find "NOT";
    ]
  in
  ignore (Synth.Topology.enumerate ~spec ms)

let bv_mul () =
  let module Bv = Sqed_bv.Bv in
  let a = Bv.of_int ~width:128 0x123456789 in
  let b = Bv.of_int ~width:128 987654321 in
  ignore (Bv.mul a b)

(* One run = blast a 32-bit adder/shifter cone and assert it.  The shape
   mirrors what the CEGIS queries emit: shared adder chains feeding
   shifters and comparators. *)
let blast ~aig () =
  let s = Solver.create ~simplify:false ~aig () in
  let x = Term.var "mb_x" 32 and y = Term.var "mb_y" 32 in
  let sum = Term.add (Term.add x y) (Term.sub y x) in
  let sh = Term.lshr (Term.shl sum (Term.of_int ~width:32 3)) y in
  let rhs = Term.add y (Term.shl x y) in
  Solver.assert_ s (Term.eq sh rhs);
  Solver.assert_ s (Term.ult (Term.add sh rhs) (Term.mul sum y));
  ignore (Solver.num_clauses s)

(* OLS ns/run of one staged function ([nan] when Bechamel gives no
   estimate), printed as it is measured. *)
let measure cfg name f =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let t = List.hd (Test.elements (Test.make ~name (Staged.stage f))) in
  let ns =
    match
      Analyze.OLS.estimates (Analyze.one ols instance (Benchmark.run cfg [ instance ] t))
    with
    | Some [ ns ] -> ns
    | _ -> nan
  in
  if Float.is_nan ns then Printf.printf "  %-32s (no estimate)\n%!" name
  else Printf.printf "  %-32s %12.0f ns/run\n%!" name ns;
  ns

let () =
  print_endline "micro-benchmarks of the substrates (Bechamel, OLS ns/run)";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:(Some 500) () in
  List.iter
    (fun (name, f) -> ignore (measure cfg name f))
    [
      ("sat: pigeonhole 5/4 unsat", sat_php);
      ("smt: 16-bit adder comm proof", smt_adder);
      ("rtl: 20 pipeline sim cycles", sim_cycles);
      ("synth: topology enumeration", topo_enum);
      ("bv: 128-bit multiply", bv_mul);
    ];
  print_endline "bit-blast encoders (AIG vs direct Tseitin)";
  (* Both backends must at least encode the workload. *)
  blast ~aig:true ();
  blast ~aig:false ();
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.5) ~kde:(Some 300) () in
  let aig = measure cfg "blast: aig" (blast ~aig:true) in
  let direct = measure cfg "blast: direct tseitin" (blast ~aig:false) in
  if Float.is_nan aig || Float.is_nan direct then
    Printf.printf "  (no ratio: missing estimate)\n"
  else Printf.printf "  aig/direct encode-time ratio: %.2f\n" (aig /. direct)
