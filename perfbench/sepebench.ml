(* sepebench: the repository benchmark.

   One run measures one workload for a fixed window, each pass in a
   fresh forked process, and prints, as its last stdout line, one JSON
   object
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   holding the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  The lines before it start with "# " and log the
   generated inputs and the per-pass figures, so a run can be repeated
   exactly.

   The library is driven only through public entry points
   (Hpf/Iterative.synthesize, Verifier.min_cex_depth, Qed_top.edsep/eddi,
   Engine.check/replay, Pool).  Per-layer numbers come from the
   benchmark's own spans around those calls, from deltas of the
   Sqed_obs.Metrics counters and timers, and from Gc.quick_stat deltas.
   NOTES.md explains the workloads and the metric -> layer -> workload
   map. *)

module Bv = Sqed_bv.Bv
module Insn = Sqed_isa.Insn
module Exec = Sqed_isa.Exec
module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module Circuit = Sqed_rtl.Circuit
module Qed_top = Sqed_qed.Qed_top
module Equiv_table = Sqed_qed.Equiv_table
module Engine = Sqed_bmc.Engine
module Btrace = Sqed_bmc.Trace
module V = Sepe_sqed.Verifier
module Synth = Sqed_synth
module Pool = Sqed_par.Pool
module Metrics = Sqed_obs.Metrics
module Span = Sqed_obs.Trace
module Json = Sqed_obs.Json

let now = Unix.gettimeofday
let log fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A failed output check: the run still prints its result, with
   "correct": false, and exits 1. *)
exception Wrong of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

(* ------------------------------------------------------------------ *)
(* Workload interface                                                  *)
(* ------------------------------------------------------------------ *)

(* One pool task of a pass: a synthesis cell or a bug's two sweeps.  It
   holds no closure, so a pass process can send it to the parent. *)
type task = {
  name : string;
  sepe_s : float;  (** time in SEPE-SQED's own method (HPF, EDSEP-V) *)
  base_s : float;  (** time in the baseline (iterative CEGIS, SQED) *)
  ok : bool;  (** false: the task crashed or ran out of budget *)
  work : (string * int) list;  (** deterministic work counts *)
  outputs : string;  (** printed outputs, compared across passes *)
  trace_len : int;  (** length of the counterexample found, if any *)
}

(* A task and the independent check of its outputs, which raises
   [Wrong]. *)
type checked = task * (unit -> unit)

type ready = {
  jobs : int;
  pool : Pool.t;
  state_bits : int;  (** register bits of the QED models built in set-up *)
  qed_build_s : float;  (** part of this set-up spent building QED models *)
  pass : unit -> checked list;  (** one measured pass over the inputs *)
}

let crashed name error =
  ( {
    name;
    sepe_s = 0.0;
    base_s = 0.0;
    ok = false;
    work = [];
    outputs = "crashed: " ^ error;
    trace_len = 0;
  },
    ignore )

(* Every task runs inside a benchmark span, so the traced pass can tell
   the time a task spends outside every library span.  No retries: a
   task either succeeds or is counted failed, and work stays
   reproducible. *)
let run_tasks pool name f xs =
  let results =
    Pool.map_result pool ~retries:0
      (fun x -> Span.with_span_named ~cat:"bench" "bench.task" (fun () -> f x))
      xs
  in
  List.map2
    (fun x -> function
      | Ok t -> t
      | Error (e : Pool.task_error) -> crashed (name x) e.Pool.error)
    xs results

let state_bits (m : Qed_top.t) =
  List.fold_left
    (fun acc r -> acc + Circuit.node_width m.Qed_top.circuit r)
    0
    (Circuit.registers m.Qed_top.circuit)

(* ------------------------------------------------------------------ *)
(* synth: the Fig. 3 campaign, fanned out over two worker domains      *)
(* ------------------------------------------------------------------ *)

let synth_cases = [ "ADD"; "SUB"; "XOR"; "OR" ]

(* The engine seed of every cell.  Synthesis cost varies by more than
   an order of magnitude from one engine seed to the next (NOTES.md),
   so the workload seed does not pick it: the campaign is one fixed set
   of cells and the workload seed is only recorded. *)
let synth_engine_seed = 2
let synth_xlen = 8

let synth_options =
  {
    Synth.Engine.default_options with
    Synth.Engine.k = 2;
    n_max = 3;
    seed = synth_engine_seed;
    time_budget = Some 60.0;
    config =
      { Synth.Cegis.default_config with Synth.Cegis.xlen = synth_xlen };
  }

(* Exhaustive oracle: the program must equal the ISA's ALU semantics on
   every pair of XLEN-bit operands. *)
let check_program case p =
  let op = List.find (fun op -> Insn.rop_name op = case) Insn.all_rops in
  let n = 1 lsl synth_xlen in
  for a = 0 to n - 1 do
    let va = Bv.of_int ~width:synth_xlen a in
    for b = 0 to n - 1 do
      let vb = Bv.of_int ~width:synth_xlen b in
      let got = Synth.Program.eval ~xlen:synth_xlen p [ va; vb ] in
      let want = Exec.alu_r ~xlen:synth_xlen op va vb in
      if not (Bv.equal got want) then
        wrong "%s program %s gives %d on (%d, %d), the ISA gives %d" case
          (Synth.Program.to_string p) (Bv.to_int got) a b (Bv.to_int want)
    done
  done

let synth_setup ~seed:_ ~quiet () =
  let log fmt = if quiet then Printf.ifprintf stdout fmt else log fmt in
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let cells =
    List.concat_map
      (fun case ->
        let spec = Synth.Library_.spec case in
        [ (case, true, spec); (case, false, spec) ])
      synth_cases
  in
  let pool = Pool.create ~jobs () in
  let name (case, hpf, _) = case ^ if hpf then "/hpf" else "/iter" in
  let run_cell ((case, hpf, spec) as cell) =
    let options = synth_options and library = Synth.Library_.default in
    let t0 = now () in
    let r =
      if hpf then Synth.Hpf.synthesize ~options ~spec ~library ()
      else Synth.Iterative.synthesize ~options ~spec ~library
    in
    let secs = now () -. t0 in
    let st = r.Synth.Engine.stats in
    let programs = r.Synth.Engine.programs in
    let countable = List.filter (Synth.Engine.countable options) programs in
    ( {
      name = name cell;
      sepe_s = (if hpf then secs else 0.0);
      base_s = (if hpf then 0.0 else secs);
      ok =
        (not r.Synth.Engine.budget_exhausted)
        && List.length countable >= options.Synth.Engine.k;
      work =
        [
          ("synth.cegis_iterations", st.Synth.Cegis.cegis_iterations);
          ("synth.solver_calls", st.Synth.Cegis.solver_calls);
          ("synth.multisets_tried", st.Synth.Cegis.multisets_tried);
          ("synth.programs_found", List.length programs);
        ];
      outputs = String.concat "; " (List.map Synth.Program.to_string programs);
      trace_len = 0;
    },
      fun () -> List.iter (check_program case) programs )
  in
  log "synth inputs: cases %s x {hpf, iter}; xlen %d, k %d, n_max %d, engine \
       seed %d, 60 s budget per cell, %d worker domains"
    (String.concat "," synth_cases) synth_xlen synth_options.Synth.Engine.k
    synth_options.Synth.Engine.n_max synth_engine_seed jobs;
  {
    jobs;
    pool;
    state_bits = 0;
    qed_build_s = 0.0;
    pass = (fun () -> run_tasks pool name run_cell cells);
  }

(* ------------------------------------------------------------------ *)
(* bmc-sweep: Table-1 style incremental sweeps on one domain           *)
(* ------------------------------------------------------------------ *)

let tiny = Config.tiny

(* Depth cap of the SQED clean sweep: depth 9 alone costs 30-35 s per
   bug on a 2-core machine (NOTES.md). *)
let clean_cap = 8

(* Ten of the eleven single-instruction classes whose class-minimum
   depth on the tiny core is at most 10 (MULH is 13 and SRA 11), in four
   strata by the measured cost of a bug's SEPE-SQED sweep and of both
   its sweeps (about 0.8 and 2.3 s, 0.8 and 3.1 s, 1.0 and 3.1 s, 1.05
   and 2.7 s on a 2-vCPU Xeon VM).  The seed draws one bug per stratum,
   so every draw costs within about 4 % of every other in both times.
   XORI, at 0.8 and 3.6 s, fits no stratum and is left out (NOTES.md). *)
let sweep_strata =
  Bug.
    [
      [ Bug_sw; Bug_add ];
      [ Bug_slli; Bug_srai ];
      [ Bug_slt; Bug_or; Bug_sltu ];
      [ Bug_sub; Bug_and; Bug_xor ];
    ]

let focus_of bug =
  Option.bind (Bug.table1_row bug) (fun row ->
      match List.find_opt (fun op -> Insn.rop_name op = row) Insn.all_rops with
      | Some op -> Some (Equiv_table.Kr op)
      | None -> (
          match
            List.find_opt (fun op -> Insn.iop_name op = row) Insn.all_iops
          with
          | Some op -> Some (Equiv_table.Ki op)
          | None -> if row = "SW" then Some Equiv_table.Ksw else None))

let min_depth bug =
  match V.min_cex_depth ~method_:V.Sepe_sqed ~bug tiny with
  | Some d -> d
  | None -> invalid_arg ("no class-minimum depth for " ^ Bug.name bug)

let engine_work prefix (st : Engine.stats) =
  [
    (prefix ^ ".clauses", st.Engine.clauses);
    (prefix ^ ".conflicts", st.Engine.sat.Sqed_sat.Sat.conflicts);
    (prefix ^ ".propagations", st.Engine.sat.Sqed_sat.Sat.propagations);
    (prefix ^ ".depths", st.Engine.bounds_checked);
  ]

let outcome_string = function
  | Engine.Counterexample t -> Printf.sprintf "cex@%d" t.Btrace.length
  | Engine.No_counterexample -> "clean"
  | Engine.Gave_up k -> Printf.sprintf "gave-up@%d" k

(* Per-query wall budget: far above every query's cost, well inside the
   180 s a run may take. *)
let query_budget = 100.0

let sweep_setup ~seed ~quiet () =
  let log fmt = if quiet then Printf.ifprintf stdout fmt else log fmt in
  let rng = Random.State.make [| seed |] in
  let bugs =
    List.map
      (fun stratum -> List.nth stratum (Random.State.int rng (List.length stratum)))
      sweep_strata
  in
  let t0 = now () in
  let inputs =
    List.map
      (fun bug ->
        let d = min_depth bug in
        if d > 10 then invalid_arg "stratum holds a class deeper than 10";
        let sepe = Qed_top.edsep ~bug ?focus:(focus_of bug) tiny in
        let sqed = Qed_top.eddi ~bug tiny in
        (bug, d, sepe, sqed))
      bugs
  in
  let qed_build_s = now () -. t0 in
  let pool = Pool.create ~jobs:1 () in
  List.iter
    (fun (bug, d, _, _) ->
      log "bmc-sweep input: bug %s, class minimum %d; SEPE-SQED (focused) \
           depths %d..%d; SQED clean sweep depths 6..min(trace, %d)"
        (Bug.name bug) d (max 1 (d - 2)) (d + 4) clean_cap)
    inputs;
  let name (bug, _, _, _) = Bug.name bug in
  let run_bug ((bug, d, sepe, sqed) as input) =
    let t0 = now () in
    let o1, st1 =
      Engine.check ~time_budget:query_budget ~start_bound:(max 1 (d - 2))
        ~bound:(d + 4) sepe
    in
    let t1 = now () in
    let len =
      match o1 with Engine.Counterexample t -> t.Btrace.length | _ -> 0
    in
    let o2, st2 =
      if len = 0 then (Engine.No_counterexample, st1)
      else
        Engine.check ~time_budget:query_budget ~start_bound:6
          ~bound:(min len clean_cap) sqed
    in
    let t2 = now () in
    let gave_up = function Engine.Gave_up _ -> true | _ -> false in
    ( {
      name = name input;
      sepe_s = t1 -. t0;
      base_s = t2 -. t1;
      ok = not (gave_up o1 || gave_up o2);
      work = engine_work "sepe" st1 @ (if len = 0 then [] else engine_work "sqed" st2);
      outputs =
        Printf.sprintf "%s sepe %s sqed %s" (Bug.name bug) (outcome_string o1)
          (if len = 0 then "-" else outcome_string o2);
      trace_len = len;
    },
      fun () ->
          (match o1 with
          | Engine.Counterexample t ->
              if not (Engine.replay sepe t) then
                wrong "%s: SEPE-SQED trace does not replay" (Bug.name bug);
              if t.Btrace.length < d || t.Btrace.length > d + 4 then
                wrong "%s: SEPE-SQED trace length %d outside %d..%d"
                  (Bug.name bug) t.Btrace.length d (d + 4)
          | Engine.No_counterexample ->
              wrong "%s: SEPE-SQED missed the bug up to depth %d"
                (Bug.name bug) (d + 4)
          | Engine.Gave_up _ -> ());
          match o2 with
          | Engine.Counterexample _ ->
              wrong "%s: SQED reported a counterexample to a \
                     single-instruction bug it cannot see"
                (Bug.name bug)
          | Engine.No_counterexample | Engine.Gave_up _ -> () )
  in
  {
    jobs = 1;
    pool;
    state_bits =
      List.fold_left
        (fun acc (_, _, sepe, sqed) -> acc + state_bits sepe + state_bits sqed)
        0 inputs;
    qed_build_s;
    pass = (fun () -> run_tasks pool name run_bug inputs);
  }

(* ------------------------------------------------------------------ *)
(* Traced passes: counters, timers, GC and span self times             *)
(* ------------------------------------------------------------------ *)

let timers () =
  match Json.member "timers" (Metrics.to_json ()) with
  | Some (Json.Obj ts) ->
      List.map
        (fun (name, j) ->
          let get k =
            Option.value ~default:0
              (Option.bind (Json.member k j) Json.to_int_opt)
          in
          (name, (get "calls", float_of_int (get "total_us") /. 1e6)))
        ts
  | _ -> []

type snapshot = {
  counters : (string * int) list;
  timers : (string * (int * float)) list;
  gc : Gc.stat;
}

let snapshot () =
  { counters = Metrics.counters_snapshot (); timers = timers (); gc = Gc.quick_stat () }

(* Layer of each library span kind; "bench.*" spans are the benchmark's
   own and attribute nothing. *)
let layer_of = function
  | "synth.multiset" | "cegis.iteration" -> "synth"
  | "smt.check" | "smt.bitblast" -> "smt"
  | "sat.solve" -> "sat"
  | "sat.simplify" -> "simplify"
  | "bmc.unroll" -> "unroll"
  | "bmc.depth" | "bmc.base" | "bmc.step" -> "bmc"
  | n when String.length n >= 6 && String.sub n 0 6 = "bench." -> "bench"
  | _ -> "other"

let layers = [ "synth"; "smt"; "sat"; "simplify"; "bmc"; "unroll"; "other" ]

(* Self time per layer over the recorded events: a span's duration minus
   that of its direct children.  Events are walked per domain in start
   order, parents before the children that start on the same tick
   (timestamps have microsecond resolution); a span's parent is the
   innermost earlier span one level up. *)
let self_times events =
  let self = Hashtbl.create 16 in
  let add layer s =
    Hashtbl.replace self layer
      (s +. Option.value ~default:0.0 (Hashtbl.find_opt self layer))
  in
  let key (e : Span.event) = (e.Span.ev_tid, e.Span.ev_ts, e.Span.ev_depth, e.Span.ev_dur) in
  let events = List.sort (fun a b -> compare (key a) (key b)) events in
  let stack = ref [] and tid = ref (-1) in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.ev_tid <> !tid then begin
        stack := [];
        tid := e.Span.ev_tid
      end;
      let rec pop = function
        | (_, d) :: rest when d >= e.Span.ev_depth -> pop rest
        | s -> s
      in
      stack := pop !stack;
      let dur = e.Span.ev_dur /. 1e6 and layer = layer_of e.Span.ev_name in
      (match !stack with (parent, _) :: _ -> add parent (-.dur) | [] -> ());
      add layer dur;
      stack := (layer, e.Span.ev_depth) :: !stack)
    events;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt self layer)

type traced = {
  tr_wall : float;
  tr_counter : string -> int;
  tr_timer : string -> int * float;  (** calls, seconds *)
  tr_gc : string -> float;
  tr_self : string -> float;  (** domain-seconds of self time per layer *)
  tr_busy : float;  (** domain-seconds inside tasks *)
  tr_queue_wait : float;
  tr_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

type pass_result = {
  wall : float;
  tasks : checked list;
  traced : traced option;
}

let run_pass ready ~traced =
  if traced then begin
    Metrics.enabled := true;
    Span.enabled := true;
    Span.reset ()
  end;
  let s0 = snapshot () and ps0 = Pool.stats ready.pool in
  let t0 = now () in
  let tasks = Span.with_span_named ~cat:"bench" "bench.pass" ready.pass in
  let wall = now () -. t0 in
  let s1 = snapshot () and ps1 = Pool.stats ready.pool in
  let tr =
    if not traced then None
    else begin
      let events = Span.events () in
      let dropped = Span.dropped () in
      Metrics.enabled := false;
      Span.enabled := false;
      let counter name =
        let get s = Option.value ~default:0 (List.assoc_opt name s.counters) in
        get s1 - get s0
      in
      let timer name =
        let get s = Option.value ~default:(0, 0.0) (List.assoc_opt name s.timers) in
        let c1, t1 = get s1 and c0, t0 = get s0 in
        (c1 - c0, t1 -. t0)
      in
      let gc = function
        | "minor_words" -> s1.gc.Gc.minor_words -. s0.gc.Gc.minor_words
        | "major_words" -> s1.gc.Gc.major_words -. s0.gc.Gc.major_words
        | "major_collections" ->
            float_of_int (s1.gc.Gc.major_collections - s0.gc.Gc.major_collections)
        | _ -> 0.0
      in
      let pool_delta f =
        sum (List.map2 (fun (a : Pool.worker_stats) b -> f b -. f a) ps0 ps1)
      in
      Some
        {
          tr_wall = wall;
          tr_counter = counter;
          tr_timer = timer;
          tr_gc = gc;
          tr_self = self_times events;
          tr_busy = pool_delta (fun w -> w.Pool.busy);
          tr_queue_wait = pool_delta (fun w -> w.Pool.queue_wait);
          tr_dropped = dropped;
        }
    end
  in
  { wall; tasks; traced = tr }

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Registry counters that must repeat exactly from pass to pass. *)
let identity_counters =
  [
    "sat.clauses";
    "sat.conflicts";
    "sat.propagations";
    "smt.aig.nodes";
    "synth.cegis_iterations";
    "synth.programs_found";
  ]

(* The per-layer metrics of one traced pass.  The run reports the median
   of each over its traced passes. *)
let layer_metrics ready ~setup_s ~qed_build_s ~tasks (t : traced) =
  let cnt name = float_of_int (t.tr_counter name) in
  let tcalls name = float_of_int (fst (t.tr_timer name)) in
  let tsecs name = snd (t.tr_timer name) in
  (* Shares of the pass capacity, jobs x wall: every layer's self time,
     the pool's idle time and the unattributed remainder. *)
  let capacity = float_of_int ready.jobs *. t.tr_wall in
  let share x = x /. capacity in
  let layer_share l = share (t.tr_self l) in
  let idle_share = share (capacity -. t.tr_busy) in
  let attributed_share = share (sum (List.map t.tr_self layers)) in
  let unattributed_share = 1.0 -. attributed_share -. idle_share in
  let check_s = tsecs "smt.check" and solve_s = tsecs "sat.solve" in
  let blast_calls = tcalls "smt.bitblast" in
  let multisets = cnt "synth.multisets" in
  let nodes = cnt "smt.aig.nodes" and hits = cnt "smt.aig.struct_hits" in
  [
    ("traced.wall_s", t.tr_wall, "s");
    ("synth.cegis_iterations", cnt "synth.cegis_iterations", "count");
    ("synth.solver_calls", cnt "synth.solver_calls", "count");
    ("synth.multisets_tried", multisets, "count");
    ("synth.programs_found", cnt "synth.programs_found", "count");
    ("synth.useful_ratio", ratio (cnt "synth.programs_found") multisets, "ratio");
    ("synth.self_share", layer_share "synth", "ratio");
    ("smt.check_calls", cnt "smt.check_calls", "count");
    ("smt.check_s", check_s, "s");
    ("smt.encode_s", t.tr_self "smt", "s");
    ("smt.bitblast_calls", blast_calls, "count");
    ("smt.bitblast_s", tsecs "smt.bitblast", "s");
    ("smt.blasts_per_check", ratio blast_calls (cnt "smt.check_calls"), "ratio");
    ("smt.aig_nodes", nodes, "count");
    ("smt.aig_struct_hit_ratio", ratio hits (hits +. nodes), "ratio");
    ("smt.blast_cache_hits", cnt "smt.blast_cache_hits", "count");
    ("smt.pg_skipped_clauses", cnt "smt.aig.pg_skipped_clauses", "count");
    ("smt.self_share", layer_share "smt", "ratio");
    ("sat.solve_s", solve_s, "s");
    ("sat.clauses", cnt "sat.clauses", "count");
    ("sat.conflicts", cnt "sat.conflicts", "count");
    ("sat.propagations", cnt "sat.propagations", "count");
    ("sat.decisions", cnt "sat.decisions", "count");
    ("sat.props_per_s", ratio (cnt "sat.propagations") solve_s, "1/s");
    ("sat.learnt_clauses", cnt "sat.learnt_clauses", "count");
    ("sat.restarts", cnt "sat.restarts", "count");
    ("sat.simplify_passes", cnt "sat.simplify.passes", "count");
    ("sat.eliminated_vars", cnt "sat.simplify.eliminated_vars", "count");
    ("sat.self_share", layer_share "sat", "ratio");
    ("sat.simplify_share", layer_share "simplify", "ratio");
    ("bmc.depths", cnt "bmc.bounds_checked", "count");
    ( "bmc.trace_len",
      float_of_int (List.fold_left (fun a t -> a + t.trace_len) 0 tasks),
      "count" );
    ("bmc.self_share", layer_share "bmc", "ratio");
    ("bmc.unroll_share", layer_share "unroll", "ratio");
    ("qed.setup_share", ratio qed_build_s setup_s, "ratio");
    ("qed.state_bits", float_of_int ready.state_bits, "count");
    ("par.busy_s", t.tr_busy, "s");
    ("par.queue_wait_ratio", ratio t.tr_queue_wait t.tr_busy, "ratio");
    ("par.idle_share", idle_share, "ratio");
    ("par.efficiency", share t.tr_busy, "ratio");
    ("gc.minor_words", t.tr_gc "minor_words", "count");
    ("gc.major_words", t.tr_gc "major_words", "count");
    ("gc.major_collections", t.tr_gc "major_collections", "count");
    ("other.self_share", layer_share "other", "ratio");
    ("unattributed_s", unattributed_share *. t.tr_wall, "s");
    ("obs.dropped_events", float_of_int t.tr_dropped, "count");
  ]

(* ------------------------------------------------------------------ *)
(* Pass processes                                                      *)
(* ------------------------------------------------------------------ *)

(* What a pass process sends back to the run: plain data only. *)
type pass_out = {
  setup_times : float list;  (** every set-up of the process *)
  wall : float;
  tasks : task list;
  rss_mb : float;  (** peak resident memory after set-up and the pass *)
  check_error : string option;  (** the first failed output check *)
  layer : (string * float * string) list;  (** traced pass only *)
  identity : (string * int) list;  (** traced pass only *)
}

(* Set-up runs this many times in every pass process; the last set-up is
   the one the pass uses. *)
let setup_repeats = 21

(* One pass in the current process: set-up, the measured pass, then,
   outside the timed region, the output checks when [check] is set. *)
let pass_process ~setup ~seed ~traced ~check ~quiet =
  let setups =
    List.init setup_repeats (fun i ->
        let t0 = now () in
        let r = setup ~seed ~quiet:(quiet || i > 0) () in
        let dt = now () -. t0 in
        if i < setup_repeats - 1 then Pool.shutdown r.pool;
        (dt, r))
  in
  let setup_times = List.map fst setups in
  let ready = snd (List.nth setups (setup_repeats - 1)) in
  let p = run_pass ready ~traced in
  let rss_mb = peak_rss_mb () in
  Pool.shutdown ready.pool;
  let tasks = List.map fst p.tasks in
  let check_error =
    if not check then None
    else
      try
        List.iter (fun (_, c) -> c ()) p.tasks;
        None
      with Wrong msg -> Some msg
  in
  let layer, identity =
    match p.traced with
    | None -> ([], [])
    | Some t ->
        let qed_build_s = median (List.map (fun (_, r) -> r.qed_build_s) setups) in
        ( layer_metrics ready ~setup_s:(median setup_times) ~qed_build_s ~tasks t,
          List.map (fun n -> (n, t.tr_counter n)) identity_counters
          @ [ ("smt.bitblast calls", fst (t.tr_timer "smt.bitblast")) ] )
  in
  { setup_times; wall = p.wall; tasks; rss_mb; check_error; layer; identity }

exception Pass_failed of string

(* Runs [pass_process] in a forked child, so that every pass starts from
   a fresh process, as one use of the tool does: the library keeps
   memory from one campaign to the next, and a long-lived process would
   grow its heap and slow down pass after pass.  The parent never spawns
   a domain, which fork requires. *)
let fork_pass ~setup ~seed ~traced ~check ~quiet =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          let out = pass_process ~setup ~seed ~traced ~check ~quiet in
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc (out : pass_out) [];
          close_out oc;
          0
        with e ->
          prerr_endline ("sepebench: pass process: " ^ Printexc.to_string e);
          2
      in
      flush_all ();
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let out =
        match (Marshal.from_channel ic : pass_out) with
        | o -> Some o
        | exception (End_of_file | Failure _) -> None
      in
      close_in ic;
      let rec wait () =
        match Unix.waitpid [] pid with
        | _, status -> status
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      (match (wait (), out) with
      | Unix.WEXITED 0, Some o -> o
      | _ -> raise (Pass_failed "a pass process failed"))

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Floats keep all their digits (Json.to_string rounds them). *)
let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value
              unit)
          metrics))

let main ~workload ~seed ~seconds ~trace =
  let setup =
    match workload with
    | "synth" -> synth_setup
    | "bmc-sweep" -> sweep_setup
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  log "workload %s, seed %d, %.0f s, trace %b" workload seed seconds trace;
  (* Measure: whole passes, each in its own process, until the window is
     used up, never starting a pass expected to end past it.  The first
     pass also runs the output checks.  With tracing, untraced and traced
     passes alternate (the untraced ones give the overhead). *)
  let started = now () in
  let rec loop acc =
    let elapsed = now () -. started in
    let last = match acc with (_, d) :: _ -> d | [] -> 0.0 in
    let n = List.length acc in
    let need_more = n = 0 || (trace && n < 2) in
    if need_more || elapsed +. last <= seconds then begin
      let t0 = now () in
      let traced = trace && n mod 2 = 1 in
      let p = fork_pass ~setup ~seed ~traced ~check:(n = 0) ~quiet:(n > 0) in
      log "pass %d%s: wall %.3f s; set-up median %.6f s; peak RSS %.1f MB; %s"
        (n + 1)
        (if traced then " (traced)" else "")
        p.wall (median p.setup_times) p.rss_mb
        (String.concat "; "
           (List.map
              (fun t ->
                Printf.sprintf "%s %.3f s%s%s" t.name (t.sepe_s +. t.base_s)
                  (if t.sepe_s > 0.0 && t.base_s > 0.0 then
                     Printf.sprintf " (SEPE-SQED %.3f + SQED %.3f)" t.sepe_s
                       t.base_s
                   else "")
                  (if t.ok then "" else " FAILED"))
              p.tasks));
      loop ((p, now () -. t0) :: acc)
    end
    else List.rev_map fst acc
  in
  let passes = loop [] in
  let attempted =
    List.fold_left (fun acc p -> acc + List.length p.tasks) 0 passes
  in
  let failed =
    List.fold_left
      (fun acc p -> acc + List.length (List.filter (fun t -> not t.ok) p.tasks))
      0 passes
  in
  let first = List.hd passes in
  let traced_passes = List.filter (fun p -> p.layer <> []) passes in
  let correct =
    try
      Option.iter (fun msg -> raise (Wrong msg)) first.check_error;
      (* Work-count identity: every pass of a run does the same work. *)
      List.iter
        (fun p ->
          List.iter2
            (fun a b ->
              if a.work <> b.work || a.outputs <> b.outputs then
                wrong "%s: pass outputs or work counts differ (%s vs %s)"
                  a.name a.outputs b.outputs)
            first.tasks p.tasks)
        passes;
      (* The same for the registry counts of the traced passes. *)
      (match traced_passes with
      | t0 :: rest ->
          List.iter
            (fun t ->
              List.iter2
                (fun (name, a) (_, b) ->
                  if a <> b then
                    wrong "traced passes differ in %s (%d vs %d)" name a b)
                t0.identity t.identity)
            rest
      | [] -> ());
      if workload = "synth" then
        List.iter
          (fun p ->
            let hpf = sum (List.map (fun t -> t.sepe_s) p.tasks)
            and iter = sum (List.map (fun t -> t.base_s) p.tasks) in
            if not (hpf < iter) then
              wrong "paper shape: HPF %.3f s is not below iterative %.3f s" hpf
                iter)
          passes;
      true
    with Wrong msg ->
      log "CHECK FAILED: %s" msg;
      false
  in
  List.iter
    (fun t ->
      log "work %s: %s" t.name
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) t.work)))
    first.tasks;
  let untraced = List.filter (fun p -> p.layer = []) passes in
  let med f ps = median (List.map f ps) in
  let wall_s = med (fun p -> p.wall) untraced in
  let metrics =
    if not trace then
      [
        ("setup_s", median (List.concat_map (fun p -> p.setup_times) passes), "s");
        ("wall_s", wall_s, "s");
        ("sepe_s", med (fun p -> sum (List.map (fun t -> t.sepe_s) p.tasks)) untraced, "s");
        ("peak_rss_mb", med (fun p -> p.rss_mb) untraced, "MB");
      ]
    else
      let value name p =
        let _, v, _ = List.find (fun (n, _, _) -> n = name) p.layer in
        v
      in
      let layer =
        List.map
          (fun (name, _, unit) -> (name, med (value name) traced_passes, unit))
          (List.hd traced_passes).layer
      in
      layer
      @ [
          ( "obs.overhead_ratio",
            ratio (med (value "traced.wall_s") traced_passes) wall_s -. 1.0,
            "ratio" );
        ]
  in
  List.iter (fun (n, v, u) -> log "metric %s = %.6g %s" n v u) metrics;
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "synth | bmc-sweep");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sepebench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "synth"; "bmc-sweep" ]) then begin
    prerr_endline "sepebench: --workload must be synth or bmc-sweep";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
