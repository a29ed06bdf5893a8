(* Per-run HTML report + run.json sidecar.

   The HTML is a single file with no external assets: styles inline,
   charts as inline SVG sparklines built from the sampler series.
   Light/dark are both shipped via CSS custom properties under
   prefers-color-scheme; status cells pair an icon glyph with a text
   label so color never carries meaning alone. *)

type status = Ok | Unknown | Failed | Skipped

type case_row = {
  rc_key : string;
  rc_status : status;
  rc_detail : string;
  rc_dur : float;
}

let started = ref (Unix.gettimeofday ())
let cases_mu = Mutex.create ()
let noted : case_row list ref = ref []

let note_case r =
  Mutex.lock cases_mu;
  noted := r :: !noted;
  Mutex.unlock cases_mu

let cases () =
  Mutex.lock cases_mu;
  let r = List.rev !noted in
  Mutex.unlock cases_mu;
  r

(* The end-of-run heap reading, taken once: the sidecar, the ledger
   payload and the bench payload all read the same collection.  Beside
   the live heap it carries the run's allocation totals: words allocated
   on the minor heap and words promoted out of it. *)
let heap_reading = ref None

let heap_json () =
  match !heap_reading with
  | Some j -> j
  | None ->
      Gc.full_major ();
      let s = Gc.stat () in
      let j =
        Json.Obj
          [
            ("live_words", Json.Int s.Gc.live_words);
            ("top_heap_words", Json.Int s.Gc.top_heap_words);
            ("minor_words", Json.Int (int_of_float s.Gc.minor_words));
            ("promoted_words", Json.Int (int_of_float s.Gc.promoted_words));
          ]
      in
      heap_reading := Some j;
      j

let reset () =
  Mutex.lock cases_mu;
  noted := [];
  Mutex.unlock cases_mu;
  heap_reading := None;
  started := Unix.gettimeofday ()

(* -- formatting helpers -------------------------------------------------- *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let humanize v =
  let a = abs_float v in
  if a >= 1e9 then Printf.sprintf "%.1fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if a >= 1e4 then Printf.sprintf "%.1fk" (v /. 1e3)
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

let fmt_us us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.1fms" (us /. 1e3)
  else Printf.sprintf "%.0fus" us

let status_name = function
  | Ok -> "ok"
  | Unknown -> "unknown"
  | Failed -> "failed"
  | Skipped -> "skipped"

(* Icon glyph + label + status class: color never stands alone. *)
let status_cell = function
  | Ok -> {|<span class="st st-ok">&#10003; ok</span>|}
  | Unknown -> {|<span class="st st-warn">? unknown</span>|}
  | Failed -> {|<span class="st st-crit">&#10007; failed</span>|}
  | Skipped -> {|<span class="st st-skip">&#8635; resumed</span>|}

(* -- sparklines ----------------------------------------------------------- *)

(* One measure per chart; when several domains contributed a series they
   overlay as polylines in the same hue (same measure, repeated units),
   so no legend is needed. *)
let sparkline_svg series =
  let w = 260.0 and h = 40.0 and pad = 3.0 in
  let all = List.concat series in
  match all with
  | [] -> ""
  | _ ->
      let lo = List.fold_left min infinity all in
      let hi = List.fold_left max neg_infinity all in
      let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
      let poly pts =
        let n = List.length pts in
        if n = 0 then ""
        else
          let step = if n <= 1 then 0.0 else (w -. (2.0 *. pad)) /. float_of_int (n - 1) in
          let coords =
            List.mapi
              (fun i v ->
                let x = pad +. (float_of_int i *. step) in
                let y = h -. pad -. ((v -. lo) /. span *. (h -. (2.0 *. pad))) in
                Printf.sprintf "%.1f,%.1f" x y)
              pts
          in
          Printf.sprintf
            {|<polyline points="%s" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round" stroke-linecap="round" opacity="%s"/>|}
            (String.concat " " coords)
            (if List.length series > 1 then "0.65" else "1")
      in
      Printf.sprintf
        {|<svg viewBox="0 0 %.0f %.0f" width="%.0f" height="%.0f" role="img">%s</svg>|}
        w h w h
        (String.concat "" (List.map poly series))

let spark_row ~name ~unit_ series =
  let all = List.concat series in
  if all = [] then ""
  else
    let lo = List.fold_left min infinity all in
    let hi = List.fold_left max neg_infinity all in
    let last = List.nth all (List.length all - 1) in
    Printf.sprintf
      {|<div class="spark"><div class="spark-head"><span class="spark-name">%s</span><span class="spark-stats">min %s · max %s · last %s%s</span></div>%s</div>|}
      (html_escape name) (humanize lo) (humanize hi) (humanize last)
      (html_escape unit_) (sparkline_svg series)

(* -- run.json ------------------------------------------------------------- *)

let case_json r =
  Json.Obj
    [
      ("key", Json.String r.rc_key);
      ("status", Json.String (status_name r.rc_status));
      ("detail", Json.String r.rc_detail);
      ("dur_s", Json.Float r.rc_dur);
    ]

let run_json ~title ~cmdline ~now =
  Json.Obj
    [
      ("schema", Json.String "sepe.flight/1");
      ("title", Json.String title);
      ("cmdline", Json.String cmdline);
      ("generated_unix_s", Json.Float now);
      ("wall_s", Json.Float (now -. !started));
      ("metrics", Metrics.to_json ());
      ("samples", Trace.samples_json ());
      ("trace_dropped", Json.Int (Trace.dropped ()));
      ("log_dropped", Json.Int (Trace.log_dropped ()));
      ("heap", heap_json ());
      ("cases", Json.List (List.map case_json (cases ())));
      ("log_tail", Json.List (List.map Trace.to_json (Trace.tail 100)));
    ]

let run_payload ?(title = "sepe-sqed run") ?(cmdline = "") () =
  run_json ~title ~cmdline ~now:(Unix.gettimeofday ())

(* -- HTML ----------------------------------------------------------------- *)

let style =
  {|<style>
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; line-height: 1.45;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 14px; margin: 28px 0 8px; color: var(--text-secondary);
     text-transform: uppercase; letter-spacing: .04em; }
.sub { color: var(--text-secondary); font-size: 13px; margin-bottom: 20px; }
code { font-family: ui-monospace, monospace; font-size: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 10px 16px; min-width: 110px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--text-secondary); }
.sparks { display: flex; flex-wrap: wrap; gap: 12px; }
.spark { background: var(--surface-1); border: 1px solid var(--border);
         border-radius: 8px; padding: 10px 12px; }
.spark-head { display: flex; justify-content: space-between; gap: 16px;
              font-size: 12px; margin-bottom: 4px; }
.spark-name { color: var(--text-primary); font-weight: 600; }
.spark-stats { color: var(--text-secondary); font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; background: var(--surface-1);
        border: 1px solid var(--border); border-radius: 8px; font-size: 13px; }
th, td { text-align: left; padding: 5px 12px; border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 600; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.st { font-weight: 600; }
.st-ok { color: var(--good); }
.st-warn { color: var(--warning); }
.st-crit { color: var(--critical); }
.st-skip { color: var(--text-secondary); }
.log { background: var(--surface-1); border: 1px solid var(--border);
       border-radius: 8px; padding: 10px 12px; font-family: ui-monospace, monospace;
       font-size: 12px; white-space: pre-wrap; overflow-x: auto; }
.log .lw { color: var(--warning); } .log .le { color: var(--critical); }
tr.hist-regressed td { background: color-mix(in srgb, var(--critical) 12%, transparent); }
.foot { margin-top: 24px; color: var(--muted); font-size: 12px; }
</style>|}

let tile ~k ~v =
  Printf.sprintf {|<div class="tile"><div class="v">%s</div><div class="k">%s</div></div>|}
    (html_escape v) (html_escape k)

let obj_members = function Json.Obj kvs -> kvs | _ -> []

let timers_table metrics =
  let timers =
    match Json.member "timers" metrics with Some t -> obj_members t | None -> []
  in
  let rows =
    timers
    |> List.filter_map (fun (name, j) ->
           match
             ( Json.member "calls" j,
               Json.member "total_us" j,
               Json.member "mean_us" j )
           with
           | Some calls, Some total, Some mean ->
               let total_us =
                 Option.value ~default:0.0 (Json.to_float_opt total)
               in
               if total_us <= 0.0 then None
               else
                 Some
                   ( name,
                     Option.value ~default:0 (Json.to_int_opt calls),
                     total_us,
                     Option.value ~default:0.0 (Json.to_float_opt mean) )
           | _ -> None)
    |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)
  in
  if rows = [] then "<p class=\"sub\">no timers recorded</p>"
  else
    "<table><tr><th>phase</th><th>calls</th><th>total</th><th>mean</th></tr>"
    ^ String.concat ""
        (List.map
           (fun (name, calls, total, mean) ->
             Printf.sprintf
               {|<tr><td><code>%s</code></td><td class="num">%d</td><td class="num">%s</td><td class="num">%s</td></tr>|}
               (html_escape name) calls (fmt_us total) (fmt_us mean))
           rows)
    ^ "</table>"

let counters_table metrics =
  let counters =
    match Json.member "counters" metrics with
    | Some c -> obj_members c
    | None -> []
  in
  let rows =
    counters
    |> List.filter_map (fun (name, j) ->
           match Json.to_int_opt j with
           | Some v when v > 0 -> Some (name, v)
           | _ -> None)
  in
  if rows = [] then "<p class=\"sub\">no counters recorded</p>"
  else
    "<table><tr><th>counter</th><th>value</th></tr>"
    ^ String.concat ""
        (List.map
           (fun (name, v) ->
             Printf.sprintf
               {|<tr><td><code>%s</code></td><td class="num">%s</td></tr>|}
               (html_escape name)
               (humanize (float_of_int v)))
           rows)
    ^ "</table>"

let histograms_table metrics =
  let hs =
    match Json.member "histograms" metrics with
    | Some h -> obj_members h
    | None -> []
  in
  let rows =
    hs
    |> List.filter_map (fun (name, j) ->
           match (Json.member "count" j, Json.member "sum" j) with
           | Some c, Some s -> (
               match (Json.to_int_opt c, Json.to_int_opt s) with
               | Some c, Some s when c > 0 -> Some (name, c, s)
               | _ -> None)
           | _ -> None)
  in
  if rows = [] then "<p class=\"sub\">no histograms recorded</p>"
  else
    "<table><tr><th>histogram</th><th>count</th><th>sum</th><th>mean</th></tr>"
    ^ String.concat ""
        (List.map
           (fun (name, c, s) ->
             Printf.sprintf
               {|<tr><td><code>%s</code></td><td class="num">%d</td><td class="num">%s</td><td class="num">%s</td></tr>|}
               (html_escape name) c
               (humanize (float_of_int s))
               (humanize (float_of_int s /. float_of_int c)))
           rows)
    ^ "</table>"

let cases_table rows =
  if rows = [] then "<p class=\"sub\">no cases recorded</p>"
  else
    "<table><tr><th>case</th><th>verdict</th><th>detail</th><th>time</th></tr>"
    ^ String.concat ""
        (List.map
           (fun r ->
             Printf.sprintf
               {|<tr><td><code>%s</code></td><td>%s</td><td>%s</td><td class="num">%s</td></tr>|}
               (html_escape r.rc_key) (status_cell r.rc_status)
               (html_escape r.rc_detail)
               (if r.rc_dur > 0.0 then Printf.sprintf "%.1fs" r.rc_dur else "–"))
           rows)
    ^ "</table>"

let log_tail_html () =
  let evs = Trace.tail 50 in
  if evs = [] then "<p class=\"sub\">log ring empty</p>"
  else
    let line e =
      let cls =
        match e.Trace.body with
        | Trace.Point { level = Trace.Warn; _ } -> " class=\"lw\""
        | Trace.Point { level = Trace.Error; _ } -> " class=\"le\""
        | _ -> ""
      in
      Printf.sprintf "<span%s>%s</span>" cls
        (html_escape (Json.to_string (Trace.to_json e)))
    in
    {|<div class="log">|} ^ String.concat "\n" (List.map line evs) ^ "</div>"

let sparks_html () =
  let series = Trace.series () in
  let per_series extract =
    List.map
      (fun (_dom, samples) -> List.map (fun (_ts, s) -> extract s) samples)
      series
    |> List.filter (fun l -> l <> [])
  in
  let blocks =
    [
      spark_row ~name:"conflicts/s" ~unit_:""
        (per_series (fun s -> s.Trace.sm_conflicts_s));
      spark_row ~name:"propagations/s" ~unit_:""
        (per_series (fun s -> s.Trace.sm_props_s));
      spark_row ~name:"learnt clauses" ~unit_:""
        (per_series (fun s -> float_of_int s.Trace.sm_learnts));
      spark_row ~name:"AIG nodes" ~unit_:""
        (per_series (fun s -> float_of_int s.Trace.sm_aig_nodes));
      spark_row ~name:"heap words" ~unit_:""
        (per_series (fun s -> float_of_int s.Trace.sm_heap_words));
    ]
    |> List.filter (fun b -> b <> "")
  in
  if blocks = [] then begin
    (* A blank time-series section usually means an instrumentation
       regression (sampler never enabled, poll sites unplugged), not an
       uninteresting run — say so in the flight log too. *)
    if !Trace.sampling then
      Trace.warn "obs.report.empty_series"
        [ ("hint", Trace.Str "sampler enabled but no samples recorded") ];
    "<p class=\"sub\">no samples recorded (sampler off or run too short)</p>"
  end
  else {|<div class="sparks">|} ^ String.concat "" blocks ^ "</div>"

(* -- cross-run history ----------------------------------------------------- *)

(* One row per tracked metric: sparkline over the ledger values with
   this run appended, the noise band, and where this run landed.
   Counters are shown only when they left the band — fifty flat counter
   rows would bury the signal. *)
let history_html history cur =
  let payloads = List.filter_map History.run_of history in
  if payloads = [] then ""
  else
    let deltas = Diff.compare_history ~history:payloads ~cur () in
    let shown =
      List.filter
        (fun d ->
          Diff.gated d.Diff.dl_metric
          || d.Diff.dl_verdict = Diff.Regressed
          || d.Diff.dl_verdict = Diff.Improved)
        deltas
    in
    if shown = [] then ""
    else
      let verdict_cell = function
        | Diff.Regressed -> {|<span class="st st-crit">&#10007; regressed</span>|}
        | Diff.Improved -> {|<span class="st st-ok">&#10003; improved</span>|}
        | Diff.Within -> {|<span class="st st-skip">within band</span>|}
        | Diff.Insufficient ->
            {|<span class="st st-skip">insufficient history</span>|}
        | Diff.Fresh -> {|<span class="st st-warn">new metric</span>|}
      in
      let history_metrics = List.map Diff.metrics_of_payload payloads in
      let row d =
        let name = d.Diff.dl_metric in
        let values =
          List.filter_map (List.assoc_opt name) history_metrics
          @ [ d.Diff.dl_cur ]
        in
        let band_cell =
          match d.Diff.dl_band with
          | Some b when b.Diff.bd_n >= 2 ->
              Printf.sprintf "%s&nbsp;&hellip;&nbsp;%s" (humanize b.Diff.bd_lo)
                (humanize b.Diff.bd_hi)
          | _ -> "&ndash;"
        in
        Printf.sprintf
          {|<tr%s><td><code>%s</code></td><td>%s</td><td class="num">%s</td><td class="num">%s</td><td>%s</td></tr>|}
          (if d.Diff.dl_verdict = Diff.Regressed then
             {| class="hist-regressed"|}
           else "")
          (html_escape name)
          (sparkline_svg [ values ])
          band_cell
          (humanize d.Diff.dl_cur)
          (verdict_cell d.Diff.dl_verdict)
      in
      Printf.sprintf
        {|<h2>History (%d archived runs)</h2>
<table><tr><th>metric</th><th>trend</th><th>noise band</th><th>this run</th><th>verdict</th></tr>%s</table>|}
        (List.length payloads)
        (String.concat "" (List.map row shown))

let html ~title ~cmdline ~history ~now =
  let metrics = Metrics.to_json () in
  let rows = cases () in
  let count st = List.length (List.filter (fun r -> r.rc_status = st) rows) in
  let find name =
    match Json.member "counters" metrics with
    | Some c -> (
        match Json.member name c with
        | Some j -> Option.value ~default:0 (Json.to_int_opt j)
        | None -> 0)
    | None -> 0
  in
  let tiles =
    [
      tile ~k:"wall time" ~v:(Printf.sprintf "%.1fs" (now -. !started));
      tile ~k:"cases ok" ~v:(string_of_int (count Ok));
      tile ~k:"unknown" ~v:(string_of_int (count Unknown));
      tile ~k:"failed" ~v:(string_of_int (count Failed));
      tile ~k:"resumed" ~v:(string_of_int (count Skipped));
      tile ~k:"conflicts" ~v:(humanize (float_of_int (find "sat.conflicts")));
      tile ~k:"propagations"
        ~v:(humanize (float_of_int (find "sat.propagations")));
    ]
  in
  let trace_dropped = Trace.dropped () in
  let log_dropped = Trace.log_dropped () in
  Printf.sprintf
    {|<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>%s</title>%s</head>
<body class="viz-root">
<h1>%s</h1>
<p class="sub">generated %s · <code>%s</code></p>
<div class="tiles">%s</div>
<h2>Time series</h2>
%s
%s
<h2>Cases</h2>
%s
<h2>Phase timers</h2>
%s
<h2>Histograms</h2>
%s
<h2>Counters</h2>
%s
<h2>Event log (tail)</h2>
%s
<p class="foot">trace events dropped: %d · log records overwritten: %d · sepe-sqed flight recorder</p>
</body></html>
|}
    (html_escape title) style (html_escape title)
    (let tm = Unix.gmtime now in
     Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
       (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
       tm.Unix.tm_sec)
    (html_escape cmdline)
    (String.concat "" tiles)
    (sparks_html ())
    (history_html history (run_json ~title ~cmdline ~now))
    (cases_table rows) (timers_table metrics)
    (histograms_table metrics) (counters_table metrics) (log_tail_html ())
    trace_dropped log_dropped

let sidecar_path path =
  let base =
    if Filename.check_suffix path ".html" then Filename.chop_suffix path ".html"
    else path
  in
  base ^ ".json"

let write ?(title = "sepe-sqed run") ?(cmdline = "") ?(history = []) ~path () =
  let now = Unix.gettimeofday () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (html ~title ~cmdline ~history ~now));
  let side = sidecar_path path in
  let oc = open_out side in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (run_json ~title ~cmdline ~now));
      output_char oc '\n');
  side
