(* The flagship experiment (paper Fig. 3): time to synthesize equivalent
   programs per original instruction, HPF-CEGIS vs iterative CEGIS.

   Shared between `sepe bench` (via Bench) and the `sepe fig3` subcommand
   so the workload is identical wherever it runs.  The optional witness phase
   appends one tiny BMC verification so a `sepe fig3 --trace` trace also
   contains bmc.depth spans; `sepe bench` keeps it off to preserve
   the historical fig3 workload.

   The fan-out is supervised: each (case, engine, seed) cell reports a
   verdict, a crashing cell degrades to a FAILED row instead of killing
   the campaign, and `?checkpoint` journals completed cells so an
   interrupted run can resume skipping them. *)

module Config = Sqed_proc.Config
module Bug = Sqed_proc.Bug
module V = Sepe_sqed.Verifier
module Synth = Sqed_synth
module Pool = Sqed_par.Pool
module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Log = Sqed_obs.Log
module Progress = Sqed_obs.Progress
module Report = Sqed_obs.Report
module Journal = Sqed_resil.Journal
module Verdict = Sqed_resil.Verdict

let line = String.make 72 '-'

let section title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

let engine_name = function `Hpf -> "hpf" | `Iter -> "iter"

let cell_key (case, engine, seed) =
  Printf.sprintf "fig3/%s/%s/%d" case (engine_name engine) seed

let cell_to_json (_, _, _, elapsed, tried, total) =
  Json.Obj
    [
      ("elapsed", Json.Float elapsed);
      ("tried", Json.Int tried);
      ("total", Json.Int total);
    ]

let cell_of_json (case, engine, seed) j =
  match
    ( Option.bind (Json.member "elapsed" j) Json.to_float_opt,
      Option.bind (Json.member "tried" j) Json.to_int_opt,
      Option.bind (Json.member "total" j) Json.to_int_opt )
  with
  | Some elapsed, Some tried, Some total ->
      Some (case, engine, seed, elapsed, tried, total)
  | _ -> None

let run ?(fast = false) ?(jobs = 0) ?(witness = false) ?checkpoint ?cases
    ?seeds ?k ?time_budget () =
  let jobs = if jobs > 0 then jobs else Pool.default_jobs () in
  section
    "Fig. 3 - time to synthesize equivalent programs per original \
     instruction\n(HPF-CEGIS vs iterative CEGIS; the classical baseline is \
     E4)";
  let cases =
    match cases with
    | Some cs -> cs
    | None ->
        if fast then [ "ADD"; "SUB"; "XOR"; "OR" ]
        else List.map (fun s -> s.Synth.Component.g_name) Synth.Library_.specs
  in
  let k = match k with Some k -> k | None -> if fast then 2 else 8 in
  let seeds =
    match seeds with Some s -> s | None -> if fast then [ 1 ] else [ 1; 2; 3 ]
  in
  let budget =
    match time_budget with
    | Some b -> b
    | None -> if fast then 60.0 else 300.0
  in
  let mk_options seed =
    {
      Synth.Engine.default_options with
      Synth.Engine.k;
      n_max = 3;
      seed;
      time_budget = Some budget;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 };
    }
  in
  Printf.printf
    "library: 30 components; k=%d programs of >=3 components; multisets of \
     size 3; xlen=8; budget %.0fs/run; mean over %d seeds\n\n"
    k budget (List.length seeds);
  (* One pool task per (case, engine, seed) cell.  Cells are seeded and
     independent, so the numbers are identical for any jobs value; rows
     are aggregated and printed in case order afterwards. *)
  let tasks =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun seed -> [ (case, `Hpf, seed); (case, `Iter, seed) ])
          seeds)
      cases
  in
  (* Checkpoint/resume: journaled cells are skipped, their stored numbers
     enter the table as if just computed. *)
  let journal = Option.map Journal.open_ checkpoint in
  let resumed, to_run =
    match journal with
    | None -> ([], tasks)
    | Some j ->
        List.partition_map
          (fun task ->
            match Option.bind (Journal.find j (cell_key task)) (cell_of_json task) with
            | Some cell -> Either.Left cell
            | None -> Either.Right task)
          tasks
  in
  if resumed <> [] then
    Printf.printf "checkpoint: resuming, %d of %d cells already journaled\n%!"
      (List.length resumed) (List.length tasks);
  Log.info "fig3.start"
    [
      ("cases", Log.I (List.length cases));
      ("cells", Log.I (List.length tasks));
      ("resumed", Log.I (List.length resumed));
      ("jobs", Log.I jobs);
      ("budget_s", Log.F budget);
    ];
  List.iter
    (fun cell ->
      let case, engine, seed, _, _, _ = cell in
      Report.note_case
        {
          Report.rc_key = cell_key (case, engine, seed);
          rc_status = Report.Skipped;
          rc_detail = "resumed from checkpoint";
          rc_dur = 0.0;
        })
    resumed;
  let run_cell ((case, engine, seed) as task) =
    let spec = Synth.Library_.spec case in
    let options = mk_options seed in
    let cell =
      match engine with
      | `Hpf ->
          let r =
            Synth.Hpf.synthesize ~options ~spec ~library:Synth.Library_.default
              ()
          in
          ( case,
            engine,
            seed,
            r.Synth.Engine.elapsed,
            r.Synth.Engine.stats.Synth.Cegis.multisets_tried,
            r.Synth.Engine.multisets_total )
      | `Iter ->
          let r =
            Synth.Iterative.synthesize ~options ~spec
              ~library:Synth.Library_.default
          in
          (case, engine, seed, r.Synth.Engine.elapsed, 0, 0)
    in
    (* Journal immediately (workers record concurrently; the journal is
       mutex-protected) so a crash mid-campaign loses at most in-flight
       cells.  A failed append — injected or real — degrades to an
       unjournaled cell: the result still enters this run's table, only
       a future resume will recompute it. *)
    (match journal with
    | Some j -> (
        match Journal.try_record j (cell_key task) (cell_to_json cell) with
        | Ok () -> ()
        | Error msg ->
            Printf.printf "checkpoint: write failed for %s (%s); continuing\n%!"
              (cell_key task) msg)
    | None -> ());
    cell
  in
  let outcomes =
    Progress.with_campaign ~task_budget:budget ~jobs
      ~total:(List.length to_run) "fig3" (fun () ->
        Pool.with_pool ~jobs (fun p -> Pool.map_result p run_cell to_run))
  in
  let verdicts =
    List.map2
      (fun task outcome ->
        match outcome with
        | Ok cell -> (task, Verdict.Ok cell)
        | Error (e : Pool.task_error) ->
            let msg =
              Printf.sprintf "%s (attempts: %d)" e.Pool.error e.Pool.attempts
            in
            if e.Pool.exhausted then (task, Verdict.Unknown msg)
            else (task, Verdict.Failed msg))
      to_run outcomes
  in
  List.iter
    (fun (task, v) ->
      let key = cell_key task in
      match v with
      | Verdict.Ok (_, _, _, elapsed, _, _) ->
          Report.note_case
            {
              Report.rc_key = key;
              rc_status = Report.Ok;
              rc_detail = "synthesized";
              rc_dur = elapsed;
            }
      | Verdict.Unknown msg ->
          Report.note_case
            {
              Report.rc_key = key;
              rc_status = Report.Unknown;
              rc_detail = msg;
              rc_dur = 0.0;
            }
      | Verdict.Failed msg ->
          Report.note_case
            {
              Report.rc_key = key;
              rc_status = Report.Failed;
              rc_detail = msg;
              rc_dur = 0.0;
            })
    verdicts;
  let cells =
    resumed
    @ List.filter_map
        (fun (_, v) -> match v with Verdict.Ok c -> Some c | _ -> None)
        verdicts
  in
  Printf.printf "%-8s %12s %12s %10s %14s\n" "case" "HPF (s)" "iter (s)"
    "HPF/iter" "HPF multisets";
  let rows = ref [] in
  List.iter
    (fun case ->
      let times engine =
        List.filter_map
          (fun (c, e, _, t, _, _) ->
            if c = case && e = engine then Some t else None)
          cells
      in
      let mean = function
        | [] -> Float.nan
        | ts -> List.fold_left ( +. ) 0.0 ts /. Float.of_int (List.length ts)
      in
      (* Mirror the sequential report: the multiset counters of the last
         seed's HPF run. *)
      let tried, total_ms =
        let last_seed = List.nth seeds (List.length seeds - 1) in
        match
          List.find_opt
            (fun (c, e, s, _, _, _) -> c = case && e = `Hpf && s = last_seed)
            cells
        with
        | Some (_, _, _, _, tried, total) -> (tried, total)
        | None -> (0, 0)
      in
      let th = mean (times `Hpf) and ti = mean (times `Iter) in
      let fmt t = if Float.is_nan t then "-" else Printf.sprintf "%.2f" t in
      rows := (case, th, ti) :: !rows;
      Printf.printf "%-8s %12s %12s %10s %9d/%d\n%!" case (fmt th) (fmt ti)
        (fmt (th /. ti))
        tried total_ms)
    cases;
  (* Degraded cells, one line each, after the table. *)
  List.iter
    (fun (task, v) ->
      match v with
      | Verdict.Ok _ -> ()
      | Verdict.Unknown msg ->
          Printf.printf "UNKNOWN %s: %s\n%!" (cell_key task) msg
      | Verdict.Failed msg ->
          Printf.printf "FAILED  %s: %s\n%!" (cell_key task) msg)
    verdicts;
  let complete = List.filter (fun (_, t, i) -> not (Float.is_nan (t +. i))) !rows in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 complete in
  let th = total (fun (_, a, _) -> a) and ti = total (fun (_, _, b) -> b) in
  (* Publish the headline totals as gauges so ledger'd runs archive the
     paper's Fig-3 claim (the run ledger flattens gauges for cross-run
     comparison) from either driver, not just `sepe bench`. *)
  Metrics.set (Metrics.gauge "fig3.hpf_total_ms") (int_of_float (th *. 1e3));
  Metrics.set (Metrics.gauge "fig3.iter_total_ms") (int_of_float (ti *. 1e3));
  if ti > 0.0 then
    Printf.printf
      "\noverall: HPF %.1fs vs iterative %.1fs -> %.0f%% time reduction \
       (paper: ~50%% average)\n"
      th ti
      (100.0 *. (1.0 -. (th /. ti)));
  if witness then begin
    Printf.printf
      "\nwitness BMC: SEPE-SQED detecting the ADD mutation on the tiny core\n%!";
    let r =
      V.run ~bug:Bug.Bug_add ~method_:V.Sepe_sqed ~bound:10 ~time_budget:120.0
        Config.tiny
    in
    Printf.printf "witness: %s\n%!" (V.outcome_to_string r)
  end;
  Option.iter Journal.close journal;
  let summary =
    Verdict.count ~skipped:(List.length resumed) (List.map snd verdicts)
  in
  if Verdict.degraded summary || summary.Verdict.skipped > 0 then
    Printf.printf "%s\n%!" (Verdict.summary_line summary);
  Log.info "fig3.done"
    [
      ("ok", Log.I summary.Verdict.ok);
      ("unknown", Log.I summary.Verdict.unknown);
      ("failed", Log.I summary.Verdict.failed);
      ("skipped", Log.I summary.Verdict.skipped);
    ];
  summary
