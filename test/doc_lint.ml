(* Structural documentation lint, run by the @doc-lint alias (wired into
   `dune runtest`).

   The container this repo builds in has no odoc binary, so `dune build
   @doc` cannot be part of CI; this lint keeps the odoc sweep honest
   instead.  Every public interface passed on the command line (the
   dune rule globs the documented libraries' *.mli files) must open with
   a module-level odoc doc-comment as its first token, and that comment
   must have some substance rather than being empty.

   The solver-stack, pool and experiment interfaces (lib/sat, lib/bmc,
   lib/par, lib/exp, and the encoder's lib/smt/aig.mli and
   lib/smt/bitblast.mli) are held to a stricter standard: every exported [val] must carry its own
   doc comment, attached the way odoc attaches them — either immediately
   before the declaration or immediately after it.  A comment sitting
   between two vals attaches to the one before it (the odoc rule), so it
   cannot excuse the next one.  With odoc installed, `dune build @doc` renders
   the same comments; see docs/ARCHITECTURE.md and docs/SOLVER.md. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* First doc comment must be the first token of the file. *)
let starts_with_doc s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && ws s.[!i] do
    incr i
  done;
  !i + 3 <= n && String.sub s !i 3 = "(**"

(* ...and must contain at least one sentence worth of text. *)
let doc_nonempty s =
  match String.index_opt s '*' with
  | Some i ->
      let rest = String.sub s (i + 2) (min 200 (String.length s - i - 2)) in
      String.exists (fun c -> not (ws c) && c <> '*' && c <> ')') rest
  | None -> false

(* ------------------------------------------------------------------ *)
(* Strict per-val check for the solver-stack interfaces                *)
(* ------------------------------------------------------------------ *)

(* The .mli is cut into an ordered element stream: doc comments and
   keyword-led declarations.  That is all the structure the attachment
   rule needs — no type-expression parsing. *)
type elt =
  | Doc  (** a [(** ... *)] comment *)
  | Decl of string * string * int  (** keyword, following name, line *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let keywords =
  [ "val"; "type"; "module"; "exception"; "include"; "open"; "external" ]

let elements s =
  let n = String.length s in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  (* Skip a (possibly nested) comment body, [i] just past the opener. *)
  let rec skip_comment () =
    if !i + 1 < n && s.[!i] = '(' && s.[!i + 1] = '*' then begin
      i := !i + 2;
      skip_comment ();
      skip_comment_tail ()
    end
    else if !i + 1 < n && s.[!i] = '*' && s.[!i + 1] = ')' then i := !i + 2
    else if !i < n then begin
      bump s.[!i];
      incr i;
      skip_comment ()
    end
  and skip_comment_tail () = skip_comment () in
  while !i < n do
    if !i + 1 < n && s.[!i] = '(' && s.[!i + 1] = '*' then begin
      let is_doc = !i + 2 < n && s.[!i + 2] = '*' in
      i := !i + 2;
      skip_comment ();
      if is_doc then out := Doc :: !out
    end
    else if s.[!i] = '"' then begin
      (* String literals cannot hide keywords. *)
      incr i;
      while !i < n && s.[!i] <> '"' do
        bump s.[!i];
        if s.[!i] = '\\' then incr i;
        incr i
      done;
      if !i < n then incr i
    end
    else if
      is_ident_char s.[!i] && (!i = 0 || not (is_ident_char s.[!i - 1]))
    then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      let word = String.sub s start (!i - start) in
      if List.mem word keywords then begin
        let at = !line in
        (* The declared name is the next identifier (skipping ws). *)
        let j = ref !i in
        while !j < n && ws s.[!j] do
          incr j
        done;
        let k = ref !j in
        while !k < n && is_ident_char s.[!k] do
          incr k
        done;
        let name = if !k > !j then String.sub s !j (!k - !j) else "?" in
        out := Decl (word, name, at) :: !out
      end
    end
    else begin
      bump s.[!i];
      incr i
    end
  done;
  List.rev !out

(* odoc attachment: a doc immediately before a val, or immediately after
   it, documents it; a doc after val X does not also excuse val Y. *)
let undocumented_vals s =
  let rec walk acc = function
    | Doc :: Decl ("val", _, _) :: rest -> walk acc rest
    | Decl ("val", _, _) :: Doc :: rest -> walk acc rest
    | Decl ("val", name, line) :: rest -> walk ((name, line) :: acc) rest
    | _ :: rest -> walk acc rest
    | [] -> List.rev acc
  in
  walk [] (elements s)

(* Path-keyed strictness: the solver stack, the encoder feeding it, the
   pool and the experiments must document every export. *)
let strict path =
  let p = String.concat "/" (String.split_on_char '\\' path) in
  let has sub =
    let ls = String.length sub and lp = String.length p in
    let rec at i = i + ls <= lp && (String.sub p i ls = sub || at (i + 1)) in
    at 0
  in
  has "lib/sat/" || has "lib/bmc/" || has "lib/par/" || has "lib/exp/"
  || has "lib/smt/aig.mli" || has "lib/smt/bitblast.mli"

let () =
  let failures = ref 0 in
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "doc_lint: no .mli files passed";
    exit 1
  end;
  List.iter
    (fun path ->
      let s = read_file path in
      if not (starts_with_doc s && doc_nonempty s) then begin
        Printf.printf "FAIL %s: missing module-level (** ... *) doc comment\n"
          path;
        incr failures
      end
      else if strict path then begin
        match undocumented_vals s with
        | [] -> Printf.printf "ok   %s (all exports documented)\n"
                  (Filename.basename path)
        | missing ->
            List.iter
              (fun (name, line) ->
                Printf.printf "FAIL %s:%d: exported [val %s] has no doc comment\n"
                  path line name)
              missing;
            incr failures
      end
      else Printf.printf "ok   %s\n" (Filename.basename path))
    files;
  if !failures > 0 then begin
    Printf.printf "doc-lint: %d interface(s) with missing docs\n" !failures;
    exit 1
  end;
  Printf.printf "doc-lint: %d interfaces documented\n" (List.length files)
