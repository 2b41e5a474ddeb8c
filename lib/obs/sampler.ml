(* Periodic per-domain time-series sampler.

   Each domain keeps its latest reported live values (conflicts,
   propagations, learnts, AIG nodes) as the state of its [Ring] and
   appends a sample row to that ring when the interval has elapsed — no
   locks on the hot path. *)

let enabled = ref false
let interval_us = ref 50_000
let set_interval_us n = interval_us := max 0 n

let m_samples = Metrics.counter "obs.sampler.samples"

type sample = {
  sm_ts : float;
  sm_conflicts_s : float;
  sm_props_s : float;
  sm_learnts : int;
  sm_aig_nodes : int;
  sm_heap_words : int;
}

let ring_capacity = 2048

(* Latest live values reported by the owning hot loops, and the previous
   sample for rate computation. *)
type live = {
  mutable conflicts : int;
  mutable props : int;
  mutable learnts : int;
  mutable aig : int;
  mutable prev_ts : float; (* seconds, absolute; 0 before the first sample *)
  mutable prev_conflicts : int;
  mutable prev_props : int;
}

let ring : (sample, live) Ring.t =
  Ring.create "sampler" ~capacity:ring_capacity (fun () ->
      {
        conflicts = 0;
        props = 0;
        learnts = 0;
        aig = 0;
        prev_ts = 0.0;
        prev_conflicts = 0;
        prev_props = 0;
      })

let sample_now r d now =
  let dt = now -. d.prev_ts in
  let rate cur prev = if dt <= 0.0 then 0.0 else float_of_int (cur - prev) /. dt in
  Ring.push r
    {
      sm_ts = (now -. Ring.epoch ()) *. 1e6;
      sm_conflicts_s =
        (if d.prev_ts = 0.0 then 0.0 else rate d.conflicts d.prev_conflicts);
      sm_props_s = (if d.prev_ts = 0.0 then 0.0 else rate d.props d.prev_props);
      sm_learnts = d.learnts;
      sm_aig_nodes = d.aig;
      sm_heap_words = (Gc.quick_stat ()).Gc.heap_words;
    };
  d.prev_ts <- now;
  d.prev_conflicts <- d.conflicts;
  d.prev_props <- d.props;
  Metrics.add_always m_samples 1

let maybe_sample r =
  let d = Ring.state r in
  let now = Unix.gettimeofday () in
  if (now -. d.prev_ts) *. 1e6 >= float_of_int !interval_us then
    sample_now r d now

let poll_sat ~conflicts ~propagations ~learnts =
  if !enabled then begin
    let r = Ring.local ring in
    let d = Ring.state r in
    d.conflicts <- conflicts;
    d.props <- propagations;
    d.learnts <- learnts;
    maybe_sample r
  end;
  Progress.beat ()

(* Racy global tick: only a throttle, precision is irrelevant. *)
let tick = ref 0

let poll_quick () =
  if !enabled then begin
    incr tick;
    let r = Ring.local ring in
    (* Tick-count fallback: until this domain has recorded its first
       sample, bypass the 1/64 mask so a run short on polls (a fast
       bench cell, a test) still leaves a series behind instead of a
       blank sparkline. *)
    if Ring.pushed r = 0 || !tick land 63 = 0 then maybe_sample r
  end;
  Progress.beat ()

let note_aig_nodes n = if !enabled then (Ring.state (Ring.local ring)).aig <- n

let series () = Ring.snapshot ring

let sample_json s =
  Json.Obj
    [
      ("ts_us", Json.Float s.sm_ts);
      ("conflicts_s", Json.Float s.sm_conflicts_s);
      ("props_s", Json.Float s.sm_props_s);
      ("learnts", Json.Int s.sm_learnts);
      ("aig_nodes", Json.Int s.sm_aig_nodes);
      ("heap_words", Json.Int s.sm_heap_words);
    ]

let to_json () =
  Json.Obj
    [
      ("interval_us", Json.Int !interval_us);
      ( "domains",
        Json.List
          (List.map
             (fun (dom, samples) ->
               Json.Obj
                 [
                   ("dom", Json.Int dom);
                   ("samples", Json.List (List.map sample_json samples));
                 ])
             (series ())) );
    ]

let reset () = Ring.reset ring
