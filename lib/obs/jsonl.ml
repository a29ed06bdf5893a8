type writer = out_channel

(* A crash can leave the file without a trailing newline (a torn last
   line); appending straight after it would fuse the next record onto
   the torn bytes and corrupt it too. *)
let ends_with_newline path =
  if not (Sys.file_exists path) then true
  else
    In_channel.with_open_bin path (fun ic ->
        let len = In_channel.length ic in
        len = 0L
        ||
        (In_channel.seek ic (Int64.pred len);
         In_channel.input_char ic = Some '\n'))

let open_writer path =
  let fresh_line = ends_with_newline path in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if not fresh_line then begin
    output_char oc '\n';
    flush oc
  end;
  oc

(* One write + flush per line: with O_APPEND a line this short is atomic
   in practice, and flushing bounds loss to the last line. *)
let write oc v =
  output_string oc (Json.to_string v ^ "\n");
  flush oc

let close = close_out_noerr

let append path v =
  let oc = open_writer path in
  Fun.protect ~finally:(fun () -> close oc) (fun () -> write oc v)

let load path =
  if not (Sys.file_exists path) then ([], 0)
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.fold_left
         (fun (acc, dropped) line ->
           if String.trim line = "" then (acc, dropped)
           else
             match Json.parse line with
             | Ok v -> (v :: acc, dropped)
             | Error _ -> (acc, dropped + 1))
         ([], 0)
    |> fun (acc, dropped) -> (List.rev acc, dropped)
