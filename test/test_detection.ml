(* Tests for the typed rows of the bug-detection experiments
   (Sqed_exp.Detection, paper Table 1 and Fig. 4): the journal codec
   round-trips every outcome kind through the journal's own JSON text, a
   string row journaled by an older harness decodes to nothing (so the
   cell is recomputed), and the Table-1 ADD row comes out as the paper
   says (SEPE-SQED finds the bug, SQED stays clean) and reprints
   byte-identically when resumed from its checkpoint. *)

module Bug = Sqed_proc.Bug
module Budget = Sqed_resil.Budget
module Json = Sqed_obs.Json
module Journal = Sqed_resil.Journal
module Campaign = Sqed_par.Campaign
module Verdict = Sqed_resil.Verdict
module D = Sqed_exp.Detection

(* -- codec ------------------------------------------------------------- *)

let gen_outcome =
  let open QCheck.Gen in
  let depth = int_range 1 40 in
  oneof
    [
      map (fun n -> D.Found n) depth;
      map (fun n -> D.Clean n) depth;
      map2
        (fun k r -> D.Gave_up (k, r))
        depth
        (opt (oneofl Budget.[ Deadline; Conflicts; Cancelled ]));
    ]

(* Seconds at the journal's precision (whole milliseconds), as every
   cell holds them. *)
let gen_cell =
  let open QCheck.Gen in
  map3
    (fun outcome ms conflicts ->
      { D.outcome; seconds = Float.of_int ms /. 1000.0; conflicts })
    gen_outcome (int_range 0 10_000_000) (int_range 0 10_000_000)

let gen_row bugs =
  QCheck.Gen.map3
    (fun bug sepe sqed -> { D.bug; sepe; sqed })
    (QCheck.Gen.oneofl bugs) gen_cell gen_cell

(* Through the journal's text and back. *)
let round_trip row =
  match Json.parse (Json.to_string (D.codec.Campaign.encode row)) with
  | Ok j -> D.codec.Campaign.decode j
  | Error e -> failwith e

let prop_round_trip name bugs line =
  QCheck.Test.make ~count:300 ~name
    (QCheck.make ~print:line (gen_row bugs))
    (fun row ->
      match round_trip row with
      | Some r -> r = row && line r = line row
      | None -> false)

let test_string_record () =
  let parent_row =
    "ADD    | ADD computes a+b+1                         | 0.10s (d=8)      \
     | -  (clean to d=8)"
  in
  Alcotest.(check bool) "a string row decodes to None" true
    (D.codec.Campaign.decode (Json.String parent_row) = None);
  Alcotest.(check bool) "an object without cells decodes to None" true
    (D.codec.Campaign.decode (Json.Obj [ ("bug", Json.String "add") ]) = None)

(* -- the Table-1 ADD row ------------------------------------------------ *)

let test_table1_add () =
  let path = Filename.temp_file "sepe_detection" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* A journal an older harness wrote: the rendered row as a string. *)
  let j = Journal.open_ path in
  Journal.record j "table1/add" (Json.String "ADD    | stale string row");
  Journal.close j;
  let run () =
    let verdicts, summary =
      Campaign.run ~jobs:1 ~checkpoint:(path, D.codec)
        ~key:(fun bug -> "table1/" ^ Bug.name bug)
        "table1"
        (fun bug -> Verdict.Ok (D.table1_row ~fast:true bug))
        [ Bug.Bug_add ]
    in
    match verdicts with
    | [ Verdict.Ok row ] -> (row, summary)
    | _ -> Alcotest.fail "the ADD cell did not finish"
  in
  let fresh, s1 = run () in
  Alcotest.(check int) "the string record is recomputed, not resumed" 0
    s1.Verdict.skipped;
  Alcotest.(check bool) "SEPE-SQED finds a trace of length 8" true
    (fresh.D.sepe.D.outcome = D.Found 8);
  Alcotest.(check bool) "SQED is clean to depth 8" true
    (fresh.D.sqed.D.outcome = D.Clean 8);
  let resumed, s2 = run () in
  Alcotest.(check int) "the rerun resumes the row" 1 s2.Verdict.skipped;
  Alcotest.(check string) "resumed row prints identically"
    (D.table1_line fresh) (D.table1_line resumed)

let suite =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      prop_round_trip "codec round-trip (Table 1 rows)" Bug.all_single
        D.table1_line;
      prop_round_trip "codec round-trip (Fig. 4 rows)" Bug.all_multi
        D.fig4_line;
    ]
  @ [
      Alcotest.test_case "string journal record decodes to None" `Quick
        test_string_record;
      Alcotest.test_case "table1 ADD row: verdicts and resume" `Slow
        test_table1_add;
    ]
