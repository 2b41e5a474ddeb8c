(* Post-run checks for the smoke aliases in bench/dune, all through the
   checked JSON parser (the same one that validates trace exports).  The
   `payload` mode checks the run payload `sepe bench` writes — the same
   object the --report sidecar and the --ledger entry carry — and the
   recorder artifacts next to it; `portfolio` checks a portfolio race;
   `ledger` checks every entry of a run ledger. *)

module Json = Sqed_obs.Json

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* `portfolio` mode, used by the @portfolio-smoke alias: after a
   `fig3 --fast --portfolio 2` run (witness BMC on), assert through the
   run.json sidecar that the portfolio actually raced — solves and
   workers counted, clauses exported into the exchange — and through the
   full JSONL stream (run.json only embeds a tail) that the per-worker
   flight-recorder events were emitted.  This pins the whole dispatch
   chain: flag -> Solver.create -> BMC depth gate -> Portfolio.solve ->
   counters/events. *)
let check_portfolio run_json log_jsonl =
  (match Json.parse (read_file run_json) with
  | Error e ->
      Printf.printf "FAIL %s does not parse: %s\n" run_json e;
      incr failures
  | Ok j ->
      let counter name =
        Option.bind (Json.member "metrics" j) (fun m ->
            Option.bind (Json.member "counters" m) (fun c ->
                Option.bind (Json.member name c) Json.to_int_opt))
      in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s > 0" name)
            (match counter name with Some v -> v > 0 | None -> false))
        [
          "sat.portfolio.solves"; "sat.portfolio.workers";
          "sat.portfolio.exported"; "sat.portfolio.wins";
        ];
      (* Published even at 0, so sharing regressions stay visible. *)
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s present" name)
            (counter name <> None))
        [ "sat.portfolio.imported"; "sat.portfolio.banked";
          "sat.portfolio.cancelled" ]);
  let lines =
    String.split_on_char '\n' (read_file log_jsonl)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let has_event name =
    List.exists
      (fun line ->
        match Json.parse line with
        | Ok j -> Json.member "ev" j = Some (Json.String name)
        | Error _ -> false)
      lines
  in
  check "portfolio.worker.start events logged" (has_event "portfolio.worker.start");
  check "a worker verdict event logged"
    (has_event "portfolio.worker.won"
    || has_event "portfolio.worker.cancelled"
    || has_event "portfolio.worker.exhausted");
  if !failures > 0 then begin
    Printf.printf "portfolio-smoke check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "portfolio-smoke check: all checks passed"

(* `ledger` mode, used by the @history-smoke alias: after bench runs have
   appended to a run ledger, re-read it line by line with the checked
   parser and assert every entry carries the sepe.ledger/1 envelope —
   schema tag, provenance block (commit, host, cores, compiler, the
   compat-gating config) and an embedded run payload — and that the file
   holds at least the expected number of entries.  Then corrupt a copy
   with a torn trailing line (the crash the append discipline is designed
   to survive) and assert History.load drops exactly that line while
   keeping every intact entry. *)
let check_ledger path min_entries =
  let module History = Sqed_obs.History in
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check
    (Printf.sprintf "ledger holds >= %d entries (got %d)" min_entries
       (List.length lines))
    (List.length lines >= min_entries);
  List.iteri
    (fun i line ->
      let tag name ok = check (Printf.sprintf "entry %d %s" (i + 1) name) ok in
      match Json.parse line with
      | Error e -> tag (Printf.sprintf "parses (%s)" e) false
      | Ok j ->
          tag "schema is sepe.ledger/1"
            (Json.member "schema" j = Some (Json.String History.schema));
          tag "has kind/label/recorded_unix_s"
            (Json.member "kind" j <> None
            && Json.member "label" j <> None
            && Json.member "recorded_unix_s" j <> None);
          let prov = Json.member "provenance" j in
          tag "provenance fields present"
            (List.for_all
               (fun f -> Option.bind prov (Json.member f) <> None)
               [ "git_commit"; "hostname"; "cores"; "ocaml"; "config" ]);
          tag "config carries the compat-gate keys"
            (List.for_all
               (fun f ->
                 Option.bind prov (fun p ->
                     Option.bind (Json.member "config" p) (Json.member f))
                 <> None)
               [ "jobs"; "fast"; "simplify"; "aig"; "portfolio" ]);
          tag "embeds a run payload"
            (match Json.member "run" j with
            | Some (Json.Obj _) -> true
            | _ -> false))
    lines;
  let loaded = History.load path in
  check "History.load keeps every intact line"
    (List.length loaded.History.entries = List.length lines
    && loaded.History.dropped = 0);
  (* Torn-line rejection: a crash mid-append leaves a partial line. *)
  let torn = path ^ ".torn" in
  let oc = open_out_bin torn in
  output_string oc (read_file path);
  output_string oc "{\"schema\":\"sepe.ledger/1\",\"kind\":\"ben";
  close_out oc;
  let reloaded = History.load torn in
  check "torn trailing line is dropped, intact entries survive"
    (List.length reloaded.History.entries = List.length lines
    && reloaded.History.dropped = 1);
  if !failures > 0 then begin
    Printf.printf "history-smoke check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "history-smoke check: all checks passed"

(* The top-level keys of the payload a file carries: a JSON document, or
   the run of the newest entry of a run ledger. *)
let payload_keys path =
  let module History = Sqed_obs.History in
  let payload =
    match List.rev (History.load path).History.entries with
    | newest :: _ -> History.run_of newest
    | [] -> Result.to_option (Json.parse (read_file path))
  in
  match payload with
  | Some (Json.Obj kvs) -> Some (List.sort compare (List.map fst kvs))
  | _ -> None

(* `payload` mode, used by the @history-smoke alias on its first run: the
   run payload must prove that the recorder recorded (obs.* counters,
   sampler series, cases, log tail), that the SAT preprocessor and the
   AIG layer ran and did real work, and that every experiment record
   carries the work it did.  These pin the plumbing end to end: if the
   simplify default silently flips off, log records stop reaching the
   ring, the sampler stops firing or the per-experiment attribution
   breaks, the alias fails instead of the regression surfacing as a
   mystery slowdown or a 100 % drop in a ledger.  The JSONL event log and
   the metrics snapshot must re-parse, and every [--same-keys] file (the
   report sidecar, the ledger the run appended to) must carry a payload
   with the same top-level keys. *)
let check_payload path log_jsonl metrics_json same_keys =
  (match Json.parse (read_file path) with
  | Error e ->
      Printf.printf "FAIL %s does not parse: %s\n" path e;
      incr failures
  | Ok j ->
      check "schema is sepe.flight/1"
        (Json.member "schema" j = Some (Json.String "sepe.flight/1"));
      check "records wall_s > 0"
        (match Option.bind (Json.member "wall_s" j) Json.to_float_opt with
        | Some w -> w > 0.0
        | None -> false);
      let config k = Option.bind (Json.member "config" j) (Json.member k) in
      check "config records simplify=true" (config "simplify" = Some (Json.Bool true));
      check "config records aig=true" (config "aig" = Some (Json.Bool true));
      let counter name =
        Option.bind (Json.member "metrics" j) (fun m ->
            Option.bind (Json.member "counters" m) (fun c ->
                Option.bind (Json.member name c) Json.to_int_opt))
      in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "counter %s > 0" name)
            (match counter name with Some v -> v > 0 | None -> false))
        [
          "obs.log.records"; "obs.sampler.samples";
          "sat.simplify.passes"; "sat.simplify.eliminated_vars";
          (* The AIG gate layer is on by default: nodes were built, the
             structural hash answered repeats, and polarity-aware
             conversion skipped clause halves. *)
          "smt.aig.nodes"; "smt.aig.struct_hits"; "smt.aig.rewrites";
          "smt.aig.pg_skipped_clauses";
        ];
      (* Present even at 0: a clean run drops nothing and retries nothing,
         but the counters must stay published so operators can tell "none
         happened" from "the accounting fell off". *)
      List.iter
        (fun name ->
          check (Printf.sprintf "counter %s present" name)
            (counter name <> None))
        [
          "obs.trace.dropped"; "obs.log.dropped"; "obs.sampler.dropped";
          "resil.retries"; "resil.task_failures"; "resil.tasks_skipped";
          "resil.faults_injected"; "resil.budget.exhausted";
          "resil.checkpoint.records";
        ];
      let nonempty_list name =
        match Json.member name j with
        | Some (Json.List (_ :: _)) -> true
        | _ -> false
      in
      check "sampler recorded at least one domain series"
        (match Option.bind (Json.member "samples" j) (Json.member "domains") with
        | Some (Json.List (d :: _)) -> (
            match Json.member "samples" d with
            | Some (Json.List (_ :: _)) -> true
            | _ -> false)
        | _ -> false);
      check "per-case verdict rows present" (nonempty_list "cases");
      check "log tail embedded" (nonempty_list "log_tail");
      (match Json.member "experiments" j with
      | Some (Json.List (_ :: _ as exps)) ->
          check "at least one experiment record" true;
          (* The records' work is read from the metrics registry by delta;
             zeros here mean the registry was off while the experiment
             ran. *)
          List.iter
            (fun e ->
              let name =
                Option.value ~default:"?"
                  (Option.bind (Json.member "name" e) Json.to_string_opt)
              in
              List.iter
                (fun key ->
                  check
                    (Printf.sprintf "experiment %s records %s > 0" name key)
                    (match Option.bind (Json.member key e) Json.to_int_opt with
                    | Some v -> v > 0
                    | None -> false))
                [ "clauses"; "conflicts" ])
            exps
      | _ -> check "at least one experiment record" false));
  List.iter
    (fun other ->
      check
        (Printf.sprintf "%s carries a payload with the same keys" other)
        (match (payload_keys path, payload_keys other) with
        | Some a, Some b -> a = b
        | _ -> false))
    same_keys;
  (* Every line of the JSONL sink must re-parse and carry the record
     envelope. *)
  let lines =
    String.split_on_char '\n' (read_file log_jsonl)
    |> List.filter (fun l -> String.trim l <> "")
  in
  check "JSONL log is non-empty" (lines <> []);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Error e ->
          check (Printf.sprintf "log line %d parses (%s)" (i + 1) e) false
      | Ok j ->
          check
            (Printf.sprintf "log line %d has ts_us/level/ev" (i + 1))
            (Json.member "ts_us" j <> None
            && Json.member "level" j <> None
            && Json.member "ev" j <> None))
    lines;
  (match metrics_json with
  | None -> ()
  | Some path -> (
      match Json.parse (read_file path) with
      | Ok _ -> check "metrics snapshot parses" true
      | Error e ->
          Printf.printf "FAIL %s does not parse: %s\n" path e;
          incr failures));
  if !failures > 0 then begin
    Printf.printf "payload check: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "payload check: all checks passed"

let () =
  let open Cmdliner in
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let cmd name doc term = Cmd.v (Cmd.info name ~doc) term in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "check_smoke")
          [
            cmd "payload"
              "Check a run payload, its JSONL log and metrics snapshot."
              Term.(
                const check_payload $ file 0 "PAYLOAD" $ file 1 "LOG"
                $ Arg.(value & pos 2 (some file) None & info [] ~docv:"METRICS")
                $ Arg.(
                    value & opt_all file []
                    & info [ "same-keys" ] ~docv:"FILE"
                        ~doc:
                          "A payload file or run ledger whose (newest) \
                           payload must have the same top-level keys."));
            cmd "portfolio" "Check a portfolio run's run.json and JSONL log."
              Term.(const check_portfolio $ file 0 "RUN_JSON" $ file 1 "LOG");
            cmd "ledger" "Check every entry of a run ledger."
              Term.(
                const check_ledger $ file 0 "LEDGER"
                $ Arg.(value & pos 1 int 1 & info [] ~docv:"MIN_ENTRIES"));
          ]))
