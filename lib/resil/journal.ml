module Json = Sqed_obs.Json
module Metrics = Sqed_obs.Metrics
module Log = Sqed_obs.Log

let m_records = Metrics.counter "resil.checkpoint.records"
let m_resumed = Metrics.counter "resil.checkpoint.resumed"
let m_torn = Metrics.counter "resil.checkpoint.torn_lines"
let m_errors = Metrics.counter "resil.checkpoint.errors"

type t = {
  oc : out_channel;
  table : (string, Json.t) Hashtbl.t;
  mutex : Mutex.t;
}

let parse_line j =
  match (Json.member "key" j, Json.member "result" j) with
  | Some (Json.String k), Some r -> Some (k, r)
  | _ -> None

let open_ path =
  let table = Hashtbl.create 64 in
  (* A torn or corrupt line is a crash mid-append.  Only the trailing
     line can legitimately be torn, but any bad line is tolerated (and
     counted) rather than refusing to resume. *)
  let records, torn = Sqed_obs.Jsonl.load parse_line path in
  List.iter (fun (k, r) -> Hashtbl.replace table k r) records;
  let resumed = List.length records in
  Metrics.add_always m_resumed resumed;
  Metrics.add_always m_torn torn;
  if torn > 0 then
    Log.warn "resil.checkpoint.torn"
      [ ("path", Log.Str path); ("lines", Log.I torn) ];
  if resumed > 0 then
    Log.info "resil.checkpoint.resumed"
      [ ("path", Log.Str path); ("entries", Log.I resumed) ];
  { oc = Sqed_obs.Jsonl.open_append path; table; mutex = Mutex.create () }

let mem t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.mem t.table key in
  Mutex.unlock t.mutex;
  r

let find t key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.mutex;
  r

let record t key result =
  (* Fault site first: an injected append failure must leave the
     in-memory table unchanged, like a real write error would. *)
  Fault.check "checkpoint.write";
  let line = Json.Obj [ ("key", Json.String key); ("result", result) ] in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      (* One write + flush per line: with O_APPEND a line this short is
         atomic in practice, and flushing bounds loss to the last line. *)
      Sqed_obs.Jsonl.output t.oc line;
      Hashtbl.replace t.table key result;
      Metrics.add_always m_records 1)

let try_record t key result =
  match record t key result with
  | () -> Ok ()
  | exception e ->
      Metrics.add_always m_errors 1;
      Log.warn "resil.checkpoint.write_failed"
        [ ("key", Log.Str key); ("error", Log.Str (Printexc.to_string e)) ];
      Error (Printexc.to_string e)

let entries t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

let close t =
  Mutex.lock t.mutex;
  close_out_noerr t.oc;
  Mutex.unlock t.mutex
