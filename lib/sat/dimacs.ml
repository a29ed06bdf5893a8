type cnf = { num_vars : int; clauses : int list list }

let parse text =
  let lines = String.split_on_char '\n' text in
  let num_vars = ref 0 in
  let num_clauses = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let error = ref None in
  let tokenize l =
    String.split_on_char ' ' l
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  List.iter
    (fun l ->
      if !error = None then
        match tokenize l with
        | [] -> ()
        | "c" :: _ -> ()
        | [ "p"; "cnf"; v; c ] -> (
            match (int_of_string_opt v, int_of_string_opt c) with
            | Some v, Some c ->
                num_vars := v;
                num_clauses := c
            | _ -> error := Some "malformed p-line")
        | tokens ->
            List.iter
              (fun tok ->
                match int_of_string_opt tok with
                | Some 0 ->
                    clauses := List.rev !current :: !clauses;
                    current := []
                | Some lit ->
                    if abs lit > !num_vars then
                      error :=
                        Some (Printf.sprintf "literal %d out of range" lit)
                    else current := lit :: !current
                | None -> error := Some ("bad token " ^ tok))
              tokens)
    lines;
  match !error with
  | Some e -> Error e
  | None ->
      if !current <> [] then clauses := List.rev !current :: !clauses;
      let cs = List.rev !clauses in
      if !num_clauses >= 0 && List.length cs <> !num_clauses then
        Error
          (Printf.sprintf "header says %d clauses, found %d" !num_clauses
             (List.length cs))
      else Ok { num_vars = !num_vars; clauses = cs }

let print cnf =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.num_vars (List.length cnf.clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    cnf.clauses;
  Buffer.contents buf

let solve ?(portfolio = 1) cnf =
  let s = Sat.create () in
  (* One-shot solving: preprocessing always pays for itself here, and the
     model-extension machinery keeps the returned assignment complete. *)
  Sat.set_simplify s true;
  let vars = Array.init cnf.num_vars (fun _ -> Sat.new_var s) in
  List.iter
    (fun clause ->
      Sat.add_clause s
        (List.map
           (fun l ->
             let v = vars.(abs l - 1) in
             if l > 0 then Sat.pos v else Sat.neg_of_var v)
           clause))
    cnf.clauses;
  Sat.simplify_now s;
  let result =
    (* A standalone instance is exactly the portfolio's sweet spot: one
       hard query, no incremental follow-up to amortize against. *)
    if portfolio > 1 then Portfolio.solve ~k:portfolio s
    else Sat.solve s
  in
  match result with
  | Sat.Sat -> (Sat.Sat, Some (Array.map (fun v -> Sat.value s v) vars))
  | r -> (r, None)
