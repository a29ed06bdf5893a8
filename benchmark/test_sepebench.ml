(* Unit tests of the benchmark's statistics, output format and oracles. *)

open Sepebench_lib
module Bv = Sqed_bv.Bv
module Json = Sqed_obs.Json
module Engine = Sqed_bmc.Engine
module Synth = Sqed_synth

let close = Alcotest.float 1e-9

(* -- statistics ----------------------------------------------------------- *)

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples")
    (fun () -> ignore (Stats.median []))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10"
    (List.init 10 (fun i -> float_of_int (i + 1)))
    (2.75, 5.5, 8.25);
  check "1..4" [ 4.0; 2.0; 3.0; 1.0 ] (1.25, 2.5, 3.75);
  check "two" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check "one" [ 3.0 ] (3.0, 3.0, 3.0)

let test_high_percentile () =
  let p n = Stats.high_percentile ~tail:10 n in
  let opt = Alcotest.(option int) in
  Alcotest.check opt "n=1" None (p 1);
  Alcotest.check opt "n=10" None (p 10);
  Alcotest.check opt "n=11" (Some 9) (p 11);
  Alcotest.check opt "n=20" (Some 50) (p 20);
  Alcotest.check opt "n=100" (Some 90) (p 100);
  Alcotest.check opt "n=1000" (Some 99) (p 1000)

(* -- names and lines ------------------------------------------------------- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "cpu_s"; "cell_cpu_s.p50"; "smt.aig.nodes"; "sat.props_per_s"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stats.valid_name n))
    [ ""; "a b"; "x/y"; "cpu:s"; "n\xc3\xa9" ]

(* Every metric BENCHMARK.json declares has a well-formed name. *)
let test_declared_names () =
  let text =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all
  in
  let doc =
    match Json.parse text with Ok j -> j | Error e -> Alcotest.fail e
  in
  let names key =
    match Json.member key doc with
    | Some (Json.List ms) ->
        List.filter_map
          (fun m -> Option.bind (Json.member "name" m) Json.to_string_opt)
          ms
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let all = names "end_to_end" @ names "per_layer" @ names "workloads" in
  Alcotest.(check bool) "some names" true (List.length all > 10);
  List.iter (fun n -> Alcotest.(check bool) n true (Stats.valid_name n)) all

let test_line_roundtrip () =
  List.iter
    (fun ((name, value, unit) as m) ->
      match Stats.parse_line (Stats.format_line m) with
      | Some (n, v, u) ->
          Alcotest.(check string) "name" name n;
          Alcotest.(check (float 0.0)) "value exact" value v;
          Alcotest.(check string) "unit" unit u
      | None -> Alcotest.fail ("did not re-parse: " ^ Stats.format_line m))
    [
      ("cpu_s", 5.2067450000000006, "s");
      ("setup_s", 1e-7, "s");
      ("sat.props_per_s", 3042102.1296084286, "1/s");
      ("fail_frac", 0.0, "ratio");
      ("trace.overhead", -0.03, "ratio");
    ];
  List.iter
    (fun l -> Alcotest.(check bool) l true (Stats.parse_line l = None))
    [ "cpu_s 1.0"; "cpu s 1.0 s"; "cpu_s x s"; "smt.gates missing"; "x nan s" ]

(* -- oracles --------------------------------------------------------------- *)

let fake_trace length =
  {
    Sqed_bmc.Trace.steps =
      List.init length (fun cycle ->
          {
            Sqed_bmc.Trace.cycle;
            orig_instr = None;
            core_instr = None;
            is_orig = false;
            stall = false;
            qed_ready = true;
            consistent = false;
            raw_inputs =
              [
                ("orig_instr", Bv.zero 32);
                ("orig_valid", Bv.zero 1);
                ("sel", Bv.zero 1);
              ];
          });
    length;
    instructions = 0;
    originals = 0;
    final_regs = [];
    initial_state = [];
  }

let is_error = function Ok () -> false | Error _ -> true

let test_bmc_oracle () =
  let never _ = Alcotest.fail "replay must not be consulted" in
  let check = Oracle.check_bmc in
  Alcotest.(check bool) "cex on a proof cell" true
    (is_error (check ~expect:Oracle.Proof ~replay:never
       (Engine.Counterexample (fake_trace 8))));
  Alcotest.(check bool) "proof on a witness cell" true
    (is_error
       (check ~expect:(Oracle.Witness 8) ~replay:never
          Engine.No_counterexample));
  Alcotest.(check bool) "gave up" true
    (is_error (check ~expect:Oracle.Proof ~replay:never (Engine.Gave_up 7)));
  Alcotest.(check bool) "too shallow" true
    (is_error (check ~expect:(Oracle.Witness 8) ~replay:never
       (Engine.Counterexample (fake_trace 5))));
  Alcotest.(check bool) "proof accepted" false
    (is_error
       (check ~expect:Oracle.Proof ~replay:never Engine.No_counterexample));
  (* An idle stimulus never fires [bad] on the real model. *)
  let model =
    Sqed_qed.Qed_top.edsep ~bug:Sqed_proc.Bug.Bug_add Sqed_proc.Config.tiny
  in
  Alcotest.(check bool) "fabricated cex does not replay" true
    (is_error (check ~expect:(Oracle.Witness 8) ~replay:(Engine.replay model)
       (Engine.Counterexample (fake_trace 9))))

(* A real witness from the detect workload passes the oracle. *)
let test_detect_cell () =
  let cell =
    List.find (fun c -> c.Workload.label = "detect/add") (Workload.detect ())
  in
  match cell.Workload.run ~deadline:(Unix.gettimeofday () +. 120.0) with
  | None -> Alcotest.fail "detect/add ran out of time"
  | Some f ->
      Alcotest.(check bool) "oracle accepts" true (f.Workload.check () = Ok ());
      Alcotest.(check (option int)) "depth" (Some 8) f.Workload.cex_depth

let program comps =
  {
    Synth.Program.spec_inputs = [ Synth.Component.Reg; Synth.Component.Reg ];
    lines =
      List.mapi
        (fun i label ->
          {
            Synth.Program.comp = Synth.Library_.find label;
            args =
              (if i = 0 then [ Synth.Program.Input 0; Synth.Program.Input 1 ]
               else [ Synth.Program.Line (i - 1); Synth.Program.Input 1 ]);
            attr_values = [];
          })
        comps;
  }

let test_synth_oracle () =
  let reference = Oracle.reference ~seed:1 ~xlen:8 ~op:Sqed_isa.Insn.ADD 1000 in
  Alcotest.(check int) "pairs" 1000 (List.length reference);
  let matches p = Oracle.program_matches ~xlen:8 (program p) reference in
  Alcotest.(check bool) "ADD computes ADD" true (matches [ "ADD" ]);
  Alcotest.(check bool) "SUB does not compute ADD" false (matches [ "SUB" ]);
  (* ((a - b) + b) | b = a | b, not a + b *)
  Alcotest.(check bool) "three-component impostor" false
    (matches [ "SUB"; "ADD"; "OR" ]);
  let options =
    {
      Synth.Engine.default_options with
      Synth.Engine.k = 1;
      config = { Synth.Cegis.default_config with Synth.Cegis.xlen = 8 };
    }
  in
  let result ?(exhausted = false) programs =
    {
      Synth.Engine.programs;
      stats = Synth.Cegis.mk_stats ();
      multisets_total = 0;
      elapsed = 0.0;
      budget_exhausted = exhausted;
    }
  in
  let check r = Oracle.check_synth ~options ~reference r in
  Alcotest.(check bool) "wrong countable program" true
    (is_error (check (result [ program [ "SUB"; "ADD"; "OR" ] ])));
  Alcotest.(check bool) "too few countable programs" true
    (is_error (check (result [ program [ "ADD" ] ])));
  Alcotest.(check bool) "budget exhausted" true
    (is_error (check (result ~exhausted:true [])))

let () =
  Alcotest.run "sepebench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "high percentile" `Quick test_high_percentile;
        ] );
      ( "output",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "declared names" `Quick test_declared_names;
          Alcotest.test_case "line round-trip" `Quick test_line_roundtrip;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "bmc rejects" `Quick test_bmc_oracle;
          Alcotest.test_case "detect witness accepted" `Quick test_detect_cell;
          Alcotest.test_case "synth rejects" `Quick test_synth_oracle;
        ] );
    ]
