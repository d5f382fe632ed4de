open Ssmst_graph
open Ssmst_sim
open Ssmst_protocols
open Ssmst_obs
open Ssmst_core

(* The runtime observatory: log-bucketed histograms, the phase ledger,
   the online invariant monitors, the report renderers — plus the
   compactness audit matrix over every protocol in the repo and the
   engine≡naive differential check with monitors attached. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------------- Hist ---------------- *)

let test_hist_basics () =
  let h = Hist.create () in
  Alcotest.(check bool) "empty" true (Hist.is_empty h);
  Alcotest.(check int) "empty p99" 0 (Hist.p99 h);
  List.iter (Hist.record h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  Alcotest.(check int) "min exact" 1 (Hist.min_value h);
  Alcotest.(check int) "max exact" 100 (Hist.max_value h);
  Alcotest.(check int) "p50 at bucket resolution" 3 (Hist.p50 h);
  Alcotest.(check int) "p99 clamps to the observed max" 100 (Hist.p99 h);
  Alcotest.(check (float 0.01)) "mean" 26.5 (Hist.mean h);
  Alcotest.(check int) "quantile 1.0 = max" 100 (Hist.quantile h 1.0);
  Hist.record h (-5);
  Alcotest.(check int) "negatives clamp to 0" 0 (Hist.min_value h);
  Hist.clear h;
  Alcotest.(check bool) "clear empties" true (Hist.is_empty h)

let test_hist_quantile_sandwich () =
  (* the quantile never under-reports and stays within one bucket (a factor
     of two) of the exact order statistic *)
  let st = Random.State.make [| 91 |] in
  for _ = 1 to 20 do
    let values = List.init 200 (fun _ -> Random.State.int st 100000) in
    let h = Hist.create () in
    List.iter (Hist.record h) values;
    let sorted = List.sort compare values in
    List.iter
      (fun q ->
        let rank = max 1 (int_of_float (ceil (q *. 200.))) in
        let exact = List.nth sorted (rank - 1) in
        let approx = Hist.quantile h q in
        Alcotest.(check bool)
          (Fmt.str "q%.2f: exact %d <= approx %d" q exact approx)
          true (approx >= exact);
        Alcotest.(check bool)
          (Fmt.str "q%.2f: approx %d <= 2*exact" q approx)
          true
          (approx <= max (Hist.min_value h) (2 * exact)))
      [ 0.5; 0.9; 0.99 ];
    Alcotest.(check bool) "quantiles monotone" true
      (Hist.p50 h <= Hist.p90 h && Hist.p90 h <= Hist.p99 h && Hist.p99 h <= Hist.max_value h)
  done

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.record a) [ 1; 7; 7 ];
  List.iter (Hist.record b) [ 0; 900 ];
  let c = Hist.merge a b in
  Alcotest.(check int) "merged count" 5 (Hist.count c);
  Alcotest.(check int) "merged min" 0 (Hist.min_value c);
  Alcotest.(check int) "merged max" 900 (Hist.max_value c);
  Alcotest.(check (float 0.01)) "merged mean" 183.0 (Hist.mean c);
  Hist.merge_into a b;
  Alcotest.(check int) "merge_into count" 5 (Hist.count a);
  Alcotest.(check int) "merge_into max" 900 (Hist.max_value a);
  (* the per-bucket shape survives the merge *)
  Alcotest.(check (list (pair int int))) "bucket rows" (Hist.nonzero c) (Hist.nonzero a)

let test_hist_json () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 3; 3; 12 ];
  let j = Hist.to_json ~label:{|q"x|} h in
  Alcotest.(check bool) "label escaped" true (contains j {|"label":"q\"x"|})

let test_hist_merge_quantiles () =
  (* Merging must commute with recording: quantiles of [merge a b] equal
     the quantiles of one histogram fed the union of the samples (exactly,
     not approximately — same log buckets either way). *)
  let xs = [ 1; 2; 2; 5; 9; 40; 41; 1000 ] and ys = [ 0; 3; 8; 8; 700; 7000 ] in
  let a = Hist.create () and b = Hist.create () and u = Hist.create () in
  List.iter (Hist.record a) xs;
  List.iter (Hist.record b) ys;
  List.iter (Hist.record u) (xs @ ys);
  let m = Hist.merge a b in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f merged = union" q)
        (Hist.quantile u q) (Hist.quantile m q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (list (pair int int))) "same buckets" (Hist.nonzero u) (Hist.nonzero m)

(* ---------------- Json_lite ---------------- *)

let test_json_lite_roundtrip () =
  let src = {|{"a":[1,-2.5,true,false,null],"s":"x\"\\\n\tz","o":{"k":3e2}}|} in
  let j = Json_lite.parse src in
  let o = match Json_lite.mem "o" j with Some o -> o | None -> Alcotest.fail "o missing" in
  Alcotest.(check (option (float 1e-9))) "nested num" (Some 300.)
    (Json_lite.num_opt (Json_lite.mem "k" o));
  Alcotest.(check (option string)) "escapes decode" (Some "x\"\\\n\tz")
    (Json_lite.str_opt (Json_lite.mem "s" j));
  Alcotest.(check int) "array length" 5 (List.length (Json_lite.arr (Json_lite.mem "a" j)));
  (* print-then-parse is the identity on the parsed value *)
  Alcotest.(check bool) "round trip" true
    (Json_lite.parse (Json_lite.to_string j) = j)

let test_json_lite_malformed () =
  List.iter
    (fun s ->
      match Json_lite.parse s with
      | _ -> Alcotest.failf "parse accepted malformed %S" s
      | exception Json_lite.Bad _ -> ())
    [
      "";
      "tru";
      {|{"a":1|};
      {|[1,2,]|};
      {|{} x|} (* trailing garbage *);
      {|"\q"|} (* unsupported escape *);
      {|[1e]|};
      {|"unterminated|};
      {|{"a" 1}|};
    ]

(* ---------------- Telemetry ---------------- *)

(* A little workload against an explicit [t]: nested phases plus a worker
   span, enough to exercise every accumulator and the event buffer. *)
let telemetry_workload (t : Telemetry.t) =
  Telemetry.enter t "round";
  Telemetry.enter t "compute";
  Telemetry.leave t "compute";
  Telemetry.enter t "apply";
  Telemetry.leave t "apply";
  Telemetry.leave t "round";
  Telemetry.span t ~tid:1 "worker" 0.002 0.004;
  Telemetry.span t ~tid:1 "worker" 0.004 0.005

let test_telemetry_fake_deterministic () =
  let render t =
    ( Telemetry.to_markdown t,
      Telemetry.to_csv t,
      Telemetry.to_json t,
      Telemetry.to_chrome_trace t )
  in
  let t1 = Telemetry.fake () and t2 = Telemetry.fake () in
  telemetry_workload t1;
  telemetry_workload t2;
  let m1, c1, j1, x1 = render t1 and m2, c2, j2, x2 = render t2 in
  Alcotest.(check string) "markdown byte-identical" m1 m2;
  Alcotest.(check string) "csv byte-identical" c1 c2;
  Alcotest.(check string) "json byte-identical" j1 j2;
  Alcotest.(check string) "chrome trace byte-identical" x1 x2;
  Alcotest.(check bool) "chrome trace has complete events" true (contains x1 {|"ph":"X"|});
  Alcotest.(check bool) "trace json parses" true
    (match Json_lite.parse x1 with _ -> true | exception Json_lite.Bad _ -> false);
  Alcotest.(check bool) "report json parses" true
    (match Json_lite.parse j1 with _ -> true | exception Json_lite.Bad _ -> false)

let test_telemetry_accumulation () =
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks *. 0.001
  in
  let minor = ref 0. in
  let gc () =
    Telemetry.
      { minor_words = !minor; major_words = 0.; minor_collections = 0.; major_collections = 0. }
  in
  let t = Telemetry.create ~clock ~gc () in
  Telemetry.enter t "work";
  minor := 500.;
  Telemetry.leave t "work";
  Telemetry.span t ~tid:2 "worker" 0.010 0.025;
  Telemetry.span t ~tid:2 "worker" 0.030 0.035;
  let find name = List.find (fun (p : Telemetry.phase) -> p.name = name) (Telemetry.phases t) in
  let w = find "work" in
  Alcotest.(check int) "phase calls" 1 w.calls;
  Alcotest.(check (float 1e-9)) "phase gc delta" 500. w.minor_words;
  Alcotest.(check bool) "phase wall positive" true (w.wall_s > 0.);
  let d2 = find "worker.d2" in
  Alcotest.(check int) "span calls accumulate per track" 2 d2.calls;
  Alcotest.(check (float 1e-9)) "span wall sums" 0.020 d2.wall_s

let test_telemetry_event_cap () =
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks *. 0.001
  in
  let gc () =
    Telemetry.{ minor_words = 0.; major_words = 0.; minor_collections = 0.; major_collections = 0. }
  in
  let t = Telemetry.create ~clock ~gc ~max_events:2 () in
  for _ = 1 to 4 do
    Telemetry.enter t "p";
    Telemetry.leave t "p"
  done;
  Alcotest.(check int) "events past the cap are counted dropped" 2 (Telemetry.dropped_events t);
  (* accumulation never stops: all four calls are still charged *)
  let p = List.hd (Telemetry.phases t) in
  Alcotest.(check int) "phase accumulation survives the cap" 4 p.calls;
  Alcotest.(check bool) "trace reports the drop" true
    (contains (Telemetry.to_chrome_trace t) {|"dropped":2|})

let test_telemetry_probe_wiring () =
  let t = Telemetry.fake () in
  Telemetry.install t;
  Fun.protect ~finally:Telemetry.uninstall (fun () ->
      Ssmst_parallel.Probe.with_ "outer" (fun () ->
          Ssmst_parallel.Probe.with_ "inner" Fun.id));
  let names = List.map (fun (p : Telemetry.phase) -> p.name) (Telemetry.phases t) in
  Alcotest.(check (list string)) "probes feed the installed sink (first-entered order)"
    [ "outer"; "inner" ] names;
  Alcotest.(check bool) "uninstalled probes are inert" true
    (Ssmst_parallel.Probe.get () = None)

(* ---------------- the phase ledger ---------------- *)

module Probe = Ssmst_parallel.Probe

(* Run [f] with a fresh clockless ledger installed; return the ledger. *)
let with_ledger f =
  let t = Telemetry.logical () in
  Telemetry.install t;
  Fun.protect ~finally:Telemetry.uninstall f;
  t

let names phases = List.map (fun (p : Telemetry.phase) -> p.name) phases

let test_ledger_nesting_and_siblings () =
  let m = Metrics.create () in
  let t =
    with_ledger (fun () ->
        Probe.with_ "fragment-level 0" (fun () ->
            m.Metrics.rounds <- 5;
            Metrics.phase m "wave-sweep" (fun () ->
                m.Metrics.rounds <- 12;
                m.Metrics.activations <- 40;
                m.Metrics.peak_bits <- 33);
            Probe.with_ "marker-assembly" ignore;
            Metrics.phase m "wave-sweep" (fun () -> m.Metrics.rounds <- 20);
            Probe.charge ~rounds:3 ()))
  in
  let root = Telemetry.root t in
  Alcotest.(check int) "root rounds = every charge" 18 root.Telemetry.rounds;
  match Telemetry.children root with
  | [ frag ] -> (
      Alcotest.(check int) "fragment rounds (inclusive)" 18 frag.Telemetry.rounds;
      Alcotest.(check int) "fragment activations" 40 frag.Telemetry.activations;
      Alcotest.(check int) "fragment peak bits" 33 frag.Telemetry.peak_bits;
      Alcotest.(check (list string))
        "children in first-entered order, the repeated name one node"
        [ "wave-sweep"; "marker-assembly" ]
        (names (Telemetry.children frag));
      match Telemetry.children frag with
      | wave :: _ ->
          Alcotest.(check int) "same-name sibling adds to calls" 2 wave.Telemetry.calls;
          Alcotest.(check int) "wave rounds summed over both entries" 15 wave.Telemetry.rounds;
          Alcotest.(check int) "wave peak bits is the engine's at leave" 33
            wave.Telemetry.peak_bits
      | [] -> Alcotest.fail "no wave child")
  | l -> Alcotest.fail (Fmt.str "expected one fragment child, got %d" (List.length l))

let test_ledger_charge_is_inclusive () =
  let t =
    with_ledger (fun () ->
        Probe.with_ "epoch 1" (fun () ->
            Probe.with_ "detect" (fun () ->
                Probe.charge ~rounds:7 ~activations:2 ~peak_bits:99 ())))
  in
  let all = Telemetry.root t :: Telemetry.phases t in
  Alcotest.(check (list string)) "three phases" [ "run"; "epoch 1"; "detect" ] (names all);
  List.iter
    (fun (n : Telemetry.phase) ->
      Alcotest.(check int) (n.Telemetry.name ^ " rounds") 7 n.Telemetry.rounds;
      Alcotest.(check int) (n.Telemetry.name ^ " peak") 99 n.Telemetry.peak_bits)
    all

let test_ledger_exception_safety () =
  let t =
    with_ledger (fun () ->
        (try
           Probe.with_ "settle" (fun () ->
               Probe.charge ~rounds:3 ();
               failwith "boom")
         with Failure _ -> ());
        Probe.with_ "inject" ignore)
  in
  Alcotest.(check (list string)) "the exception closed settle: inject is its sibling"
    [ "settle"; "inject" ] (names (Telemetry.phases t));
  Alcotest.(check int) "charge survived the exception" 3 (Telemetry.root t).Telemetry.rounds;
  Telemetry.leave t "nothing open";
  Alcotest.(check (list string)) "leave with nothing open is a no-op" [ "settle"; "inject" ]
    (names (Telemetry.phases t))

(* ---------------- Trace: JSON round-trip (satellite) ---------------- *)

let nasty = "a\"b\\c,\nend\ttab\001ctl"

let all_variants =
  [
    Trace.Activation { round = 1; node = 2 };
    Trace.Register_write { round = 3; node = 4; bits = 99; prov = None };
    Trace.Alarm_raised { round = 5; node = 6 };
    Trace.Alarm_cleared { round = 6; node = 6 };
    Trace.Fault_injected { round = 7; node = 0; fault = None };
    Trace.Convergence { round = 8; reached = false };
    Trace.Convergence { round = 9; reached = true };
    Trace.Span_mark { round = 10; label = nasty; enter = true };
    Trace.Span_mark { round = 11; label = ""; enter = false };
    Trace.Invariant_violation { round = 12; node = None; monitor = "compactness"; detail = nasty };
    Trace.Invariant_violation
      { round = 13; node = Some 5; monitor = "forest"; detail = "cycle at node 5" };
  ]

let test_trace_json_roundtrip () =
  List.iter
    (fun e ->
      let j = Trace.event_to_json e in
      (* the encoding is a single clean line: no raw control bytes *)
      String.iter
        (fun ch ->
          Alcotest.(check bool) (Fmt.str "no control byte in %s" j) true (Char.code ch >= 0x20))
        j;
      match Trace.event_of_json j with
      | None -> Alcotest.fail (Fmt.str "unparseable: %s" j)
      | Some e' ->
          Alcotest.(check bool) (Fmt.str "round-trip: %s" j) true (e = e'))
    all_variants;
  Alcotest.(check bool) "garbage rejected" true (Trace.event_of_json "{nope" = None);
  Alcotest.(check bool) "unknown event rejected" true
    (Trace.event_of_json {|{"event":"warp","round":1}|} = None)

let test_trace_csv_escaping () =
  let row =
    Trace.event_to_csv (Trace.Span_mark { round = 1; label = "a,b\"c"; enter = true })
  in
  Alcotest.(check bool) "comma-bearing label is quoted" true (contains row {|"a,b""c"|})

(* ---------------- Metrics: full reset (satellite) ---------------- *)

let test_metrics_reset_restores_every_field () =
  let m = Metrics.create () in
  m.Metrics.rounds <- 1;
  m.Metrics.activations <- 2;
  m.Metrics.register_writes <- 3;
  m.Metrics.wasted_steps <- 4;
  m.Metrics.skipped_activations <- 5;
  m.Metrics.last_write_round <- 6;
  m.Metrics.faults_injected <- 7;
  m.Metrics.alarms_raised <- 8;
  m.Metrics.alarms_cleared <- 9;
  m.Metrics.peak_bits <- 10;
  m.Metrics.monitor_violations <- 11;
  Metrics.reset m;
  let z = Metrics.create () in
  Alcotest.(check int) "rounds" z.Metrics.rounds m.Metrics.rounds;
  Alcotest.(check int) "activations" z.Metrics.activations m.Metrics.activations;
  Alcotest.(check int) "register_writes" z.Metrics.register_writes m.Metrics.register_writes;
  Alcotest.(check int) "wasted_steps" z.Metrics.wasted_steps m.Metrics.wasted_steps;
  Alcotest.(check int) "skipped_activations" z.Metrics.skipped_activations
    m.Metrics.skipped_activations;
  Alcotest.(check int) "last_write_round" z.Metrics.last_write_round m.Metrics.last_write_round;
  Alcotest.(check int) "faults_injected" z.Metrics.faults_injected m.Metrics.faults_injected;
  Alcotest.(check int) "alarms_raised" z.Metrics.alarms_raised m.Metrics.alarms_raised;
  Alcotest.(check int) "alarms_cleared" z.Metrics.alarms_cleared m.Metrics.alarms_cleared;
  Alcotest.(check int) "peak_bits" z.Metrics.peak_bits m.Metrics.peak_bits;
  Alcotest.(check int) "monitor_violations" z.Metrics.monitor_violations
    m.Metrics.monitor_violations;
  (* the structural equality seals it: reset m = create () *)
  Alcotest.(check bool) "reset m = create ()" true (z = m)

(* ---------------- Monitor: synthetic views ---------------- *)

(* a fully controllable view for unit-testing each monitor in isolation *)
type sandbox = {
  view : Monitor.view;
  set_parent : int -> int option -> unit;
  set_alarm : int -> bool -> unit;
  set_bits : int -> int -> unit;
  touch : unit -> unit;  (* bump the change counter *)
}

let sandbox n =
  let g = Gen.ring (Gen.rng 5) n in
  let parent = Array.make n None in
  let alarm = Array.make n false in
  let bits = Array.make n 1 in
  let version = ref 0 in
  {
    view =
      {
        Monitor.graph = g;
        parent = (fun v -> parent.(v));
        bits = (fun v -> bits.(v));
        alarm = (fun v -> alarm.(v));
        peak_bits = (fun () -> Array.fold_left max 0 bits);
        any_alarm = (fun () -> Array.exists Fun.id alarm);
        change_counter = (fun () -> !version);
      };
    set_parent = (fun v p -> parent.(v) <- p);
    set_alarm = (fun v a -> alarm.(v) <- a);
    set_bits = (fun v b -> bits.(v) <- b);
    touch = (fun () -> incr version);
  }

let verdict_of mon name =
  match List.assoc_opt name (Monitor.results mon) with
  | Some v -> v
  | None -> Alcotest.fail (Fmt.str "unknown monitor %s" name)

let is_violation = function Monitor.Violation _ -> true | Monitor.Ok -> false

let test_monitor_caching () =
  let sb = sandbox 8 in
  let mon = Monitor.create sb.view in
  sb.touch ();
  Monitor.check mon ~round:1;
  Monitor.check mon ~round:2;
  Monitor.check mon ~round:3;
  Alcotest.(check int) "unchanged rounds skip evaluation" 1 (Monitor.evaluations mon);
  sb.touch ();
  Monitor.check mon ~round:4;
  Alcotest.(check int) "changed round re-evaluates" 2 (Monitor.evaluations mon);
  Alcotest.(check bool) "all ok on a sane view" true (Monitor.all_ok mon)

let test_monitor_forest_cycle () =
  let sb = sandbox 8 in
  let tr = Trace.create () in
  let m = Metrics.create () in
  let mon = Monitor.create ~trace:tr ~metrics:m sb.view in
  (* a 3-cycle among 2 -> 3 -> 4 -> 2, everything else floating *)
  sb.set_parent 2 (Some 3);
  sb.set_parent 3 (Some 4);
  sb.set_parent 4 (Some 2);
  sb.touch ();
  Monitor.check mon ~round:17;
  (match verdict_of mon "forest" with
  | Monitor.Violation { round; node; _ } ->
      Alcotest.(check int) "violation pinpoints the round" 17 round;
      Alcotest.(check bool) "violating node named" true
        (match node with Some v -> List.mem v [ 2; 3; 4 ] | None -> false)
  | Monitor.Ok -> Alcotest.fail "cycle not caught");
  Alcotest.(check int) "metrics counter bumped" 1 m.Metrics.monitor_violations;
  Alcotest.(check int) "one trace event" 1
    (List.length
       (List.filter
          (function Trace.Invariant_violation { monitor = "forest"; _ } -> true | _ -> false)
          (Trace.to_list tr)));
  (* the verdict latches: later rounds keep the first occurrence *)
  sb.touch ();
  Monitor.check mon ~round:40;
  (match verdict_of mon "forest" with
  | Monitor.Violation { round; _ } -> Alcotest.(check int) "latched" 17 round
  | Monitor.Ok -> Alcotest.fail "latch lost");
  Alcotest.(check int) "no double count" 1 m.Metrics.monitor_violations

let test_monitor_forest_ok_on_forest () =
  let sb = sandbox 8 in
  let mon = Monitor.create sb.view in
  (* a path 7 -> 6 -> ... -> 0, plus out-of-range rejection separately *)
  for v = 1 to 7 do
    sb.set_parent v (Some (v - 1))
  done;
  sb.touch ();
  Monitor.check mon ~round:1;
  Alcotest.(check bool) "chains are fine" false (is_violation (verdict_of mon "forest"));
  sb.set_parent 0 (Some 99);
  sb.touch ();
  Monitor.check mon ~round:2;
  Alcotest.(check bool) "out-of-range parent is a violation" true
    (is_violation (verdict_of mon "forest"))

let test_monitor_compactness () =
  let sb = sandbox 16 in
  let m = Metrics.create () in
  let mon = Monitor.create ~metrics:m ~compact_c:2 sb.view in
  sb.touch ();
  Monitor.check mon ~round:1;
  Alcotest.(check bool) "small registers ok" false (is_violation (verdict_of mon "compactness"));
  (* bound = 2 * ceil(log2 16) = 8 bits; node 11 blows it *)
  sb.set_bits 11 80;
  sb.touch ();
  Monitor.check mon ~round:9;
  (match verdict_of mon "compactness" with
  | Monitor.Violation { round; node; _ } ->
      Alcotest.(check int) "round" 9 round;
      Alcotest.(check (option int)) "offending node found" (Some 11) node
  | Monitor.Ok -> Alcotest.fail "oversized register not caught")

let test_monitor_alarm_monotonicity_and_distance () =
  let sb = sandbox 8 in
  let mon = Monitor.create ~distance_c:0 sb.view in
  sb.touch ();
  Monitor.check mon ~round:1;
  Monitor.note_injection mon ~round:2 ~faults:[ 0 ];
  Monitor.check mon ~round:2;
  Alcotest.(check bool) "armed, no alarm yet: ok" true (Monitor.all_ok mon);
  (* alarm fires at hop distance 4 on the 8-ring; distance_c = 0 makes the
     bound 0, so the detection-distance monitor must flag this round *)
  sb.set_alarm 4 true;
  sb.touch ();
  Monitor.check mon ~round:7;
  (match verdict_of mon "detection-distance" with
  | Monitor.Violation { round; _ } ->
      Alcotest.(check int) "distance violation pinpoints the detection round" 7 round
  | Monitor.Ok -> Alcotest.fail "too-low distance bound not caught");
  (* the alarm vanishing before the reset is a monotonicity violation *)
  sb.set_alarm 4 false;
  sb.touch ();
  Monitor.check mon ~round:11;
  (match verdict_of mon "alarm-monotonicity" with
  | Monitor.Violation { round; _ } -> Alcotest.(check int) "mono round" 11 round
  | Monitor.Ok -> Alcotest.fail "alarm loss not caught");
  (* after a reset the monitors disarm: a fresh quiet state is fine *)
  Monitor.note_reset mon ~round:12;
  sb.touch ();
  Monitor.check mon ~round:13;
  Alcotest.(check int) "latched violations stay" 2
    (List.length (List.filter (fun (_, v) -> is_violation v) (Monitor.results mon)))

let test_monitor_alarm_monotonicity_honest () =
  let sb = sandbox 8 in
  let mon = Monitor.create ~distance_c:3 sb.view in
  Monitor.note_injection mon ~round:1 ~faults:[ 2 ];
  sb.set_alarm 2 true;
  sb.touch ();
  Monitor.check mon ~round:3;
  sb.touch ();
  Monitor.check mon ~round:4;
  Monitor.note_reset mon ~round:5;
  sb.set_alarm 2 false;
  sb.touch ();
  Monitor.check mon ~round:6;
  Alcotest.(check bool) "alarm cleared after reset is fine" true (Monitor.all_ok mon)

(* ---------------- Monitor on the real verifier ---------------- *)

type harness = {
  mon : Monitor.t;
  tr : Trace.t;
  settle : unit -> unit;
  inject : int -> int -> int list;  (* seed, count -> victims *)
  inject_at : int -> int -> int list;  (* seed, node: targeted bit-flip *)
  alarm_of : int -> bool;
  detect : Scheduler.t -> int option;
  ddist : int list -> int option;
  rounds : unit -> int;
}

let verifier_harness ?(compact_c = Monitor.default_compact_c)
    ?(distance_c = Monitor.default_distance_c) ~seed n =
  let g = Gen.random_connected (Gen.rng seed) n in
  let m = Marker.run g in
  let module C = struct
    let marker = m
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  let tr = Trace.create () in
  let view =
    {
      Monitor.graph = g;
      parent = Tree.parent m.Marker.tree;
      bits = (fun v -> P.bits (Net.state net v));
      alarm = (fun v -> P.alarm (Net.state net v));
      peak_bits = (fun () -> Net.peak_bits net);
      any_alarm = (fun () -> Net.any_alarm net);
      change_counter =
        (fun () ->
          let mm = Net.metrics net in
          mm.Metrics.register_writes + mm.Metrics.faults_injected);
    }
  in
  let mon = Monitor.create ~trace:tr ~metrics:(Net.metrics net) ~compact_c ~distance_c view in
  Net.set_round_hook net (fun () -> Monitor.check mon ~round:(Net.rounds net));
  {
    mon;
    tr;
    settle =
      (fun () ->
        Net.run net Scheduler.Sync ~rounds:(8 * Verifier.window_bound m.Marker.labels.(0)));
    inject =
      (fun iseed count ->
        let fs = Net.inject_faults net (Gen.rng iseed) ~count in
        Monitor.note_injection mon ~round:(Net.rounds net) ~faults:fs;
        fs);
    inject_at =
      (fun iseed v ->
        let model =
          Fault.make ~placement:(Fault.Targeted [ v ]) ~severity:Fault.Bit_flip ~count:1 ()
        in
        let fs = Net.inject net (Gen.rng iseed) model in
        Monitor.note_injection mon ~round:(Net.rounds net) ~faults:fs;
        fs);
    alarm_of = (fun v -> P.alarm (Net.state net v));
    detect = (fun daemon -> Net.detection_time net daemon ~max_rounds:20000);
    ddist = (fun faults -> Net.detection_distance net ~faults);
    rounds = (fun () -> Net.rounds net);
  }

let test_monitors_ok_on_honest_run () =
  let h = verifier_harness ~seed:1207 48 in
  h.settle ();
  let fs = h.inject 77 1 in
  (match h.detect Scheduler.Sync with
  | Some _ -> ()
  | None -> Alcotest.fail "fault not detected");
  ignore fs;
  Alcotest.(check bool) "all four monitors ok across settle+inject+detect" true
    (Monitor.all_ok h.mon);
  Alcotest.(check bool) "monitors actually evaluated" true (Monitor.evaluations h.mon > 10)

(* the acceptance scenario: a deliberately-too-low detection-distance bound
   must produce a violation that pinpoints the detection round *)
let test_too_low_distance_bound_pinpoints_round () =
  let n = 48 in
  let tried = ref 0 in
  (* a targeted bit-flip the victim silently repairs (its own alarm stays
     off) while a neighbour observes the corrupt snapshot and raises —
     detection at hop distance >= 1, which the zeroed bound must flag *)
  let attempt (seed, victim) =
    let h = verifier_harness ~distance_c:0 ~seed n in
    h.settle ();
    let fs = h.inject_at (seed * 13) victim in
    if h.alarm_of victim then false
    else
      match h.detect Scheduler.Sync with
      | None -> false
      | Some _ -> (
          incr tried;
          match h.ddist fs with
          | Some d when d > 0 -> (
              let detection_round = h.rounds () in
              (match verdict_of h.mon "detection-distance" with
              | Monitor.Violation { round; _ } ->
                  Alcotest.(check int)
                    (Fmt.str "seed %d: violation names the detection round" seed)
                    detection_round round
              | Monitor.Ok ->
                  Alcotest.fail (Fmt.str "seed %d: distance %d > 0 yet no violation" seed d));
              (* and the violation landed in the trace *)
              match
                List.find_opt
                  (function
                    | Trace.Invariant_violation { monitor = "detection-distance"; _ } -> true
                    | _ -> false)
                  (Trace.to_list h.tr)
              with
              | Some (Trace.Invariant_violation { round; _ }) ->
                  Alcotest.(check int) "trace event carries the round" detection_round round;
                  true
              | _ -> Alcotest.fail "violation missing from the trace")
          | _ -> false)
  in
  let candidates =
    List.concat_map
      (fun seed -> List.map (fun v -> (seed, v)) [ n / 4; n / 2; (3 * n) / 4 ])
      [ 3301; 3302; 3303; 3304; 3305; 3306; 3307; 3308 ]
  in
  if not (List.exists attempt candidates) then
    Alcotest.fail
      (Fmt.str "no candidate yielded a positive detection distance (%d detections tried)"
         !tried)

(* ---------------- engine = naive with monitors attached ---------------- *)

let test_engine_diff_with_monitors () =
  List.iter
    (fun (seed, kind) ->
      let n = 16 in
      let g = Gen.random_connected (Gen.rng seed) n in
      let m = Marker.run g in
      let module C = struct
        let marker = m
        let mode = if kind = 0 then Verifier.Passive else Verifier.Handshake
      end in
      let module P = Verifier.Make (C) in
      let module N = Network.Naive (P) in
      let module E = Network.Make (P) in
      let naive = N.create g and engine = E.create g in
      let view =
        {
          Monitor.graph = g;
          parent = Tree.parent m.Marker.tree;
          bits = (fun v -> P.bits (E.state engine v));
          alarm = (fun v -> P.alarm (E.state engine v));
          peak_bits = (fun () -> E.peak_bits engine);
          any_alarm = (fun () -> E.any_alarm engine);
          change_counter =
            (fun () ->
              let mm = E.metrics engine in
              mm.Metrics.register_writes + mm.Metrics.faults_injected);
        }
      in
      let mon = Monitor.create ~metrics:(E.metrics engine) view in
      E.set_round_hook engine (fun () -> Monitor.check mon ~round:(E.rounds engine));
      let dn =
        if kind = 0 then Scheduler.Sync else Scheduler.Async_random (Gen.rng (seed + 1))
      in
      let de =
        if kind = 0 then Scheduler.Sync else Scheduler.Async_random (Gen.rng (seed + 1))
      in
      let check ctx =
        Array.iteri
          (fun v s ->
            if not (P.equal s (E.state engine v)) then
              Alcotest.fail (Fmt.str "%s: states diverge at node %d (seed %d)" ctx v seed))
          (N.states naive);
        Alcotest.(check bool) (ctx ^ ": alarms agree") (N.any_alarm naive)
          (E.any_alarm engine)
      in
      for r = 1 to 80 do
        N.round naive dn;
        E.round engine de;
        check (Fmt.str "round %d" r)
      done;
      let fn = N.inject_faults naive (Gen.rng (seed + 2)) ~count:2 in
      let fe = E.inject_faults engine (Gen.rng (seed + 2)) ~count:2 in
      Alcotest.(check (list int)) "fault sets agree" fn fe;
      Monitor.note_injection mon ~round:(E.rounds engine) ~faults:fe;
      for r = 1 to 80 do
        N.round naive dn;
        E.round engine de;
        check (Fmt.str "post-fault round %d" r)
      done;
      Alcotest.(check bool) "monitor rode along" true (Monitor.evaluations mon > 0))
    [ (4401, 0); (4402, 1) ]

(* ---------------- the compactness audit matrix (satellite) ---------------- *)

let audit_sizes = [ 16; 64; 256 ]

(* record every node's register size after [rounds] of execution and assert
   the peak stays within [bound_of logn] bits *)
let assert_compact name g ~bound_of ~bits_of ~peak =
  let n = Graph.n g in
  let logn = Memory.of_nat n in
  let h = Hist.create () in
  for v = 0 to n - 1 do
    Hist.record h (bits_of v)
  done;
  let observed = max peak (Hist.max_value h) in
  let bound = bound_of logn in
  Alcotest.(check bool)
    (Fmt.str "%s n=%d: peak %d bits <= %d" name n observed bound)
    true (observed <= bound)

let run_network_audit (type s) name
    (module P : Protocol.S with type state = s) g ~rounds ~bound_of =
  let module Net = Network.Make (P) in
  let net = Net.create g in
  Net.run net Scheduler.Sync ~rounds;
  assert_compact name g ~bound_of
    ~bits_of:(fun v -> P.bits (Net.state net v))
    ~peak:(Net.peak_bits net)

let test_compactness_matrix () =
  List.iter
    (fun n ->
      let g = Gen.random_connected (Gen.rng (6000 + n)) n in
      let rounds = min (4 * n) 700 in
      (* self-stabilizing BFS election: O(log n) bits *)
      run_network_audit "ss-bfs" (module Ss_bfs.P) g ~rounds ~bound_of:(fun l -> 8 * l);
      (* register-level wave&echo over the MST: O(log n) bits *)
      let t = (Sync_mst.run g).Sync_mst.tree in
      let parent =
        Array.init n (fun v -> match Tree.parent t v with None -> -1 | Some p -> p)
      in
      let module W = Dist_wave.Make (struct
        let parent = parent
        let value _ = 1
        let combine = ( + )
      end) in
      run_network_audit "dist-wave" (module W) g ~rounds ~bound_of:(fun l -> 12 * l);
      (* reset service wrapping the election: O(log n) bits *)
      let module R = Reset.Make (Ss_bfs.P) in
      run_network_audit "reset" (module R) g ~rounds ~bound_of:(fun l -> 20 * l);
      (* alpha synchronizer wrapping the election: O(log n) bits for
         bounded runs (the pulse counter is log(rounds)) *)
      let module S = Synchronizer.Make (Ss_bfs.P) in
      run_network_audit "synchronizer" (module S) g ~rounds ~bound_of:(fun l -> 24 * l);
      (* the paper's verifier: O(log n) bits (Section 2.4) *)
      let m = Marker.run g in
      let module C = struct
        let marker = m
        let mode = Verifier.Passive
      end in
      let module V = Verifier.Make (C) in
      run_network_audit "verifier" (module V) g ~rounds:(min rounds 300)
        ~bound_of:(fun l -> Monitor.default_compact_c * l);
      (* the KKP 1-proof labeling checker: Theta(log^2 n) bits — the paper's
         contrast, audited against the quadratic envelope *)
      let scheme = Ssmst_pls.Kkp_pls.mark m in
      let module KC = struct
        let scheme = scheme
      end in
      let module K = Ssmst_pls.Kkp_protocol.Make (KC) in
      run_network_audit "kkp-1-proof" (module K) g ~rounds:8 ~bound_of:(fun l -> 8 * l * l))
    audit_sizes

let test_compactness_baselines () =
  (* the baselines report their own measured memory; audit the claims they
     are labelled with (they are not Protocol.S instances) *)
  List.iter
    (fun n ->
      let g = Gen.random_connected (Gen.rng (6100 + n)) n in
      let logn = Memory.of_nat n in
      let hl = Ssmst_baselines.Higham_liang.run g in
      Alcotest.(check bool)
        (Fmt.str "higham-liang n=%d: %d bits <= %d" n hl.Ssmst_baselines.Higham_liang.memory_bits
           (16 * logn))
        true
        (hl.Ssmst_baselines.Higham_liang.memory_bits <= 16 * logn);
      let bl = Ssmst_baselines.Blin.run g in
      Alcotest.(check bool)
        (Fmt.str "blin n=%d: %d bits <= %d" n bl.Ssmst_baselines.Blin.memory_bits
           (16 * logn * logn))
        true
        (bl.Ssmst_baselines.Blin.memory_bits <= 16 * logn * logn))
    [ 16; 64 ]

(* ---------------- reports end to end ---------------- *)

(* Each scenario on the random and grid families at two seeds; the ledger
   must attribute the paper's timetable: a construction's rounds are the
   marker's [construction_rounds] (SYNC_MST's phase charges, the 11-round
   warm-up and the partition rounds), every fragment level carries the
   running peak bits, and the verifier settles for 8 window bounds. *)
let report_inputs = [ ("random", 11); ("random", 3); ("grid", 11); ("grid", 3) ]

let report_of scenario p =
  let ledger = Telemetry.logical () in
  let r = Observatory.run ledger ~scenario p in
  Alcotest.(check bool) "monitors ok" true (Report.all_monitors_ok r);
  (r, ledger)

(* The phase at [path] below the root. *)
let phase_at ledger path =
  List.fold_left
    (fun (p : Telemetry.phase) name ->
      match List.find_opt (fun (c : Telemetry.phase) -> c.name = name) (Telemetry.children p) with
      | Some c -> c
      | None -> Alcotest.failf "no phase %S under %S" name p.name)
    (Telemetry.root ledger) path

let marker_of (p : Observatory.params) =
  Marker.run (Verifier_campaign.graph_of_family p.family (Gen.rng p.seed) p.n)

let check_construct ctx (c : Telemetry.phase) ~rounds =
  Alcotest.(check int) (ctx ^ ": construct rounds") rounds c.Telemetry.rounds;
  let levels =
    List.filter
      (fun (f : Telemetry.phase) -> String.starts_with ~prefix:"fragment-level" f.name)
      (Telemetry.children c)
  in
  Alcotest.(check bool) (ctx ^ ": has fragment levels") true (levels <> []);
  List.iter
    (fun (f : Telemetry.phase) ->
      Alcotest.(check bool)
        (Fmt.str "%s: %s peak bits %d > 0" ctx f.name f.peak_bits)
        true (f.peak_bits > 0))
    levels

let test_report_construct () =
  List.iter
    (fun (family, seed) ->
      let ctx = Fmt.str "%s seed %d" family seed in
      let p = { Observatory.default_params with Observatory.family; n = 32; seed } in
      let r, ledger = report_of "construct" p in
      let md = Report.to_markdown r in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Fmt.str "markdown mentions %S" needle) true (contains md needle))
        [ "fragment-level 0"; "wave-sweep"; "per-node label bits"; "## Phases"; "| forest | ok |" ];
      check_construct ctx (phase_at ledger [ "construct" ])
        ~rounds:(marker_of p).Marker.construction_rounds)
    report_inputs

let test_report_verify () =
  List.iter
    (fun (family, seed) ->
      let ctx = Fmt.str "%s seed %d" family seed in
      let p = { Observatory.default_params with Observatory.family; n = 32; seed } in
      let r, ledger = report_of "verify" p in
      let m = marker_of p in
      check_construct ctx (phase_at ledger [ "construct" ]) ~rounds:m.Marker.construction_rounds;
      Alcotest.(check int) (ctx ^ ": settle rounds = 8 window bounds")
        (8 * Verifier.window_bound m.Marker.labels.(0))
        (phase_at ledger [ "settle" ]).Telemetry.rounds;
      let md = Report.to_markdown r in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Fmt.str "markdown mentions %S" needle) true (contains md needle))
        [ "· settle"; "· inject"; "· detect"; "· · make.compute" ])
    report_inputs

let test_report_stabilize () =
  List.iter
    (fun (family, seed) ->
      let ctx = Fmt.str "%s seed %d" family seed in
      let p =
        { Observatory.default_params with Observatory.family; n = 48; seed; epochs = 2; faults = 1 }
      in
      let r, ledger = report_of "stabilize" p in
      let md = Report.to_markdown r in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Fmt.str "markdown mentions %S" needle) true (contains md needle))
        [ "epoch 0"; "epoch 1"; "construct"; "detect"; "alarm latency"; "per-node register bits" ];
      (* a transformer construction adds the O(n) election to the marker's *)
      let m = marker_of p in
      List.iter
        (fun (e : Telemetry.phase) ->
          check_construct (ctx ^ " " ^ e.name) (phase_at ledger [ e.name; "construct" ])
            ~rounds:(Transformer.construction_cost m.Marker.graph m))
        (Telemetry.children (Telemetry.root ledger));
      let j = Report.to_json r in
      Alcotest.(check bool) "json object shaped" true
        (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}');
      Alcotest.(check bool) "json says monitors ok" true (contains j {|"monitors_ok":true|}))
    report_inputs

let suite =
  [
    Alcotest.test_case "hist: record/min/max/quantiles" `Quick test_hist_basics;
    Alcotest.test_case "hist: quantile sandwich vs exact" `Quick test_hist_quantile_sandwich;
    Alcotest.test_case "hist: merge" `Quick test_hist_merge;
    Alcotest.test_case "hist: json label escaping" `Quick test_hist_json;
    Alcotest.test_case "hist: merge commutes with quantiles" `Quick test_hist_merge_quantiles;
    Alcotest.test_case "json_lite: round trip" `Quick test_json_lite_roundtrip;
    Alcotest.test_case "json_lite: malformed inputs raise Bad" `Quick test_json_lite_malformed;
    Alcotest.test_case "telemetry: fake clock is byte-deterministic" `Quick
      test_telemetry_fake_deterministic;
    Alcotest.test_case "telemetry: phase + span accumulation" `Quick
      test_telemetry_accumulation;
    Alcotest.test_case "telemetry: event cap counts drops" `Quick test_telemetry_event_cap;
    Alcotest.test_case "telemetry: probe install/uninstall wiring" `Quick
      test_telemetry_probe_wiring;
    Alcotest.test_case "ledger: nesting + same-name siblings" `Quick
      test_ledger_nesting_and_siblings;
    Alcotest.test_case "ledger: charge is inclusive" `Quick test_ledger_charge_is_inclusive;
    Alcotest.test_case "ledger: exception safety" `Quick test_ledger_exception_safety;
    Alcotest.test_case "trace: every variant round-trips through JSON" `Quick
      test_trace_json_roundtrip;
    Alcotest.test_case "trace: csv escaping" `Quick test_trace_csv_escaping;
    Alcotest.test_case "metrics: reset restores every field" `Quick
      test_metrics_reset_restores_every_field;
    Alcotest.test_case "monitor: change-counter caching" `Quick test_monitor_caching;
    Alcotest.test_case "monitor: forest cycle detection" `Quick test_monitor_forest_cycle;
    Alcotest.test_case "monitor: forest accepts forests" `Quick test_monitor_forest_ok_on_forest;
    Alcotest.test_case "monitor: compactness bound" `Quick test_monitor_compactness;
    Alcotest.test_case "monitor: alarm monotonicity + detection distance" `Quick
      test_monitor_alarm_monotonicity_and_distance;
    Alcotest.test_case "monitor: honest alarm lifecycle" `Quick
      test_monitor_alarm_monotonicity_honest;
    Alcotest.test_case "monitor: all ok on an honest verifier run" `Quick
      test_monitors_ok_on_honest_run;
    Alcotest.test_case "monitor: too-low distance bound pinpoints the round" `Quick
      test_too_low_distance_bound_pinpoints_round;
    Alcotest.test_case "engine = naive with monitors attached" `Quick
      test_engine_diff_with_monitors;
    Alcotest.test_case "compactness audit matrix (protocols)" `Slow test_compactness_matrix;
    Alcotest.test_case "compactness audit (baselines)" `Quick test_compactness_baselines;
    Alcotest.test_case "report: construct scenario" `Quick test_report_construct;
    Alcotest.test_case "report: stabilize scenario" `Quick test_report_stabilize;
    Alcotest.test_case "report: verify scenario" `Quick test_report_verify;
  ]
