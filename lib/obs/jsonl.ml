(* One JSON value per line, appended with one write + flush.  Shared by
   the run ledger (History) and the resil checkpoint journal, which links
   against this library. *)

let ends_with_newline path =
  if not (Sys.file_exists path) then true
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        len = 0
        ||
        (seek_in ic (len - 1);
         input_char ic = '\n'))
  end

let output oc j =
  output_string oc (Json.to_string j ^ "\n");
  flush oc

let open_append path =
  let fresh_line = ends_with_newline path in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly; Open_binary ] 0o644
      path
  in
  (* A crash mid-append leaves the last line torn; appending straight
     after it would fuse the next record onto the torn bytes and lose it
     too. *)
  if not fresh_line then begin
    output_char oc '\n';
    flush oc
  end;
  oc

let append path j =
  let oc = open_append path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output oc j)

let load accept path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let records, dropped =
      List.fold_left
        (fun (acc, dropped) line ->
          if String.trim line = "" then (acc, dropped)
          else
            match Result.map accept (Json.parse line) with
            | Ok (Some r) -> (r :: acc, dropped)
            | Ok None | Error _ -> (acc, dropped + 1))
        ([], 0)
        (String.split_on_char '\n' text)
    in
    (List.rev records, dropped)
  end
