(* The benchmark harness: one driver per table/figure of the paper (see
   DESIGN.md's experiment index), each printing the paper-shaped rows with
   measured values, followed by a Bechamel wall-clock suite with one
   Test.make per experiment driver.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- T1 F-DT (a subset) *)

open Ssmst_graph
open Ssmst_sim
open Ssmst_core

let line () = Fmt.pr "%s@." (String.make 78 '-')

let header title =
  Fmt.pr "@.%s@." (String.make 78 '=');
  Fmt.pr "%s@." title;
  Fmt.pr "%s@." (String.make 78 '=')

let logn n = Memory.of_nat n

(* ==================================================================== *)
(* T1 — Table 1: self-stabilizing MST construction algorithms            *)
(* ==================================================================== *)

let table1 () =
  header
    "T1 / Table 1 — self-stabilizing MST construction: space (bits/node) x time (rounds)";
  Fmt.pr "%-28s %-6s %12s %14s %10s@." "algorithm" "n" "bits/node" "rounds" "rounds/n";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (3000 + n) in
      let g = Gen.random_connected st n in
      let hl = Ssmst_baselines.Higham_liang.run g in
      Fmt.pr "%-28s %-6d %12d %14d %10.1f@." "Higham-Liang-style [48]" n
        hl.Ssmst_baselines.Higham_liang.memory_bits hl.Ssmst_baselines.Higham_liang.rounds
        (float_of_int hl.Ssmst_baselines.Higham_liang.rounds /. float_of_int n);
      let bl = Ssmst_baselines.Blin.run g in
      Fmt.pr "%-28s %-6d %12d %14d %10.1f@." "Blin et al.-style [17]" n
        bl.Ssmst_baselines.Blin.memory_bits bl.Ssmst_baselines.Blin.rounds
        (float_of_int bl.Ssmst_baselines.Blin.rounds /. float_of_int n);
      let t = Transformer.create g in
      Transformer.advance t ~rounds:50;
      Fmt.pr "%-28s %-6d %12d %14d %10.1f@." "this paper (transformer)" n
        (Transformer.memory_bits t)
        (Transformer.stabilization_rounds t)
        (float_of_int (Transformer.stabilization_rounds t) /. float_of_int n);
      line ())
    [ 32; 64; 128; 256 ];
  Fmt.pr
    "paper's claim: [48]-style O(log n) bits x Theta(n|E|) time; [17]-style O(log^2 n)\n\
     bits x Theta(n^2) time; this paper O(log n) bits x O(n) time.@."

(* ==================================================================== *)
(* T2 — Table 2 / Figure 1: the worked 18-node example                   *)
(* ==================================================================== *)

let fig1_graph () =
  (* A fixed 18-node tree in the spirit of Figure 1 (the exact topology of
     the figure is not recoverable from the paper's text; see
     EXPERIMENTS.md).  Node names a..r. *)
  let edges =
    [
      (0, 1, 2); (5, 6, 6); (1, 6, 18); (2, 6, 12); (3, 7, 10); (4, 8, 15);
      (7, 8, 11); (2, 7, 20); (9, 10, 4); (14, 15, 8); (10, 15, 16);
      (11, 16, 3); (12, 17, 7); (12, 13, 14); (11, 12, 17); (10, 11, 21);
      (6, 11, 22);
    ]
  in
  Graph.of_edges ~n:18 edges

let node_name v = String.make 1 (Char.chr (Char.code 'a' + v))

let table2 () =
  header "T2 / Table 2 + Figure 1 — Roots, EndP, Parents, Or-EndP strings";
  let g = fig1_graph () in
  let m = Marker.run g in
  let labels = Labels.of_hierarchy m.hierarchy in
  let len = labels.(0).Labels.len in
  let pr_table name cell =
    Fmt.pr "@.%-8s" name;
    for j = 0 to len - 1 do
      Fmt.pr "%-6d" j
    done;
    Fmt.pr "@.";
    for v = 0 to 17 do
      Fmt.pr "%-8s" (node_name v);
      for j = 0 to len - 1 do
        Fmt.pr "%-6s" (cell v j)
      done;
      Fmt.pr "@."
    done
  in
  Fmt.pr "hierarchy height: %d (levels 0..%d); MST weight %d@." m.hierarchy.height
    m.hierarchy.height (Tree.total_base_weight m.tree);
  pr_table "Roots" (fun v j -> Fmt.str "%a" Labels.pp_rsym labels.(v).Labels.roots.(j));
  pr_table "EndP" (fun v j -> Fmt.str "%a" Labels.pp_esym labels.(v).Labels.endp.(j));
  pr_table "Parents" (fun v j -> if labels.(v).Labels.parents.(j) then "1" else "0");
  pr_table "Or-EndP" (fun v j -> if labels.(v).Labels.cnt.(j) > 0 then "1" else "0");
  (* machine-check legality, as the paper's Table 2 is claimed legal *)
  let vw = Labels.view_of_tree m.tree labels in
  let ok = List.for_all (fun v -> Labels.check_node vw v = []) (List.init 18 Fun.id) in
  Fmt.pr "@.RS0-RS5 and EPS0-EPS5 legality of all strings: %b@." ok

(* ==================================================================== *)
(* F-DT — detection time vs n (Theorem 8.5)                              *)
(* ==================================================================== *)

(* (node, which part, own-index, level) of every live stored piece, in
   descending node order: F-DT draws its seeded fault targets by index into
   this list, so the order fixes which piece a seed corrupts. *)
let live_piece_targets (m : Marker.t) =
  List.rev_map (fun (v, which, k, (pc : Pieces.t)) -> (v, which, k, pc.level)) (Marker.live_pieces m)

let semantic_fault_at rng (m : Marker.t) =
  (* prefer the highest-level live piece: the Ask cycle reaches it last *)
  match live_piece_targets m with
  | [] -> None
  | targets ->
      let best = List.fold_left (fun acc (_, _, _, l) -> max acc l) (-1) targets in
      let top_targets = List.filter (fun (_, _, _, l) -> l >= max 1 (best - 1)) targets in
      let pick = if top_targets = [] then targets else top_targets in
      Some (List.nth pick (Random.State.int rng (List.length pick)))

let corrupt_live_piece rng (s : Verifier.state) which k =
  let bump (pl : Partition.node_part_label) =
    let own = Array.copy pl.Partition.own in
    let w = own.(k).Pieces.weight in
    own.(k) <-
      {
        (own.(k)) with
        Pieces.weight = { w with Weight.base = w.Weight.base + 1 + Random.State.int rng 7 };
      };
    { pl with Partition.own = own }
  in
  let label =
    match which with
    | `Top -> { s.Verifier.label with Marker.top = bump s.Verifier.label.Marker.top }
    | `Bottom -> { s.Verifier.label with Marker.bot = bump s.Verifier.label.Marker.bot }
  in
  { s with Verifier.label; cmp = Verifier.cmp_init; alarm = false }

let detection_sample ~mode ~daemon ~seed n =
  let st = Gen.rng seed in
  let g = Gen.random_connected st n in
  let m = Marker.run g in
  let module C = struct
    let marker = m
    let mode = mode
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  Net.run net daemon ~rounds:(8 * Verifier.window_bound m.labels.(0));
  if Net.any_alarm net then None
  else
    let rng = Gen.rng (seed + 1) in
    match semantic_fault_at rng m with
    | None -> None
    | Some (v, which, k, _) -> (
        Net.set_state net v (corrupt_live_piece rng (Net.state net v) which k);
        match Net.detection_time net daemon ~max_rounds:200000 with
        | Some dt -> Some (dt, Net.detection_distance net ~faults:[ v ])
        | None -> None)

let fig_detection_time () =
  header "F-DT — detection time after a semantic fault (sync O(log^2 n); Thm 8.5)";
  Fmt.pr "%-6s %-8s %8s %8s %14s %10s@." "n" "log2 n" "avg" "max" "max/log^2n" "samples";
  line ();
  List.iter
    (fun n ->
      let samples =
        List.filter_map
          (fun i -> detection_sample ~mode:Verifier.Passive ~daemon:Scheduler.Sync ~seed:(4000 + n + i) n)
          [ 0; 1; 2; 3; 4 ]
      in
      match samples with
      | [] -> Fmt.pr "%-6d (no detectable semantic fault found)@." n
      | _ ->
          let dts = List.map (fun (dt, _) -> dt) samples in
          let avg = float_of_int (List.fold_left ( + ) 0 dts) /. float_of_int (List.length dts) in
          let worst = List.fold_left max 0 dts in
          let l = float_of_int (logn n) in
          Fmt.pr "%-6d %-8d %8.0f %8d %14.1f %10d@." n (logn n) avg worst
            (float_of_int worst /. (l *. l))
            (List.length samples))
    [ 16; 32; 64; 128; 256; 512 ];
  Fmt.pr "shape check: rounds/log^2 n should stay bounded as n grows.@."

(* ==================================================================== *)
(* F-ASY — sync vs async detection (Lemmas 7.5 / 7.6)                    *)
(* ==================================================================== *)

let ask_cycle_time ~mode ~daemon ~seed n =
  (* rounds for the maximum-degree node to complete one full Ask cycle:
     the quantity bounded by O(log^2 n) sync / O(Delta log^3 n) async *)
  let st = Gen.rng seed in
  let g = Gen.random_connected st n in
  let m = Marker.run g in
  let module C = struct
    let marker = m
    let mode = mode
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  (* highest-degree node that iterates at least two comparison levels (a
     single-level node never changes ask_level, so no cycle is observable) *)
  let levels_of u =
    let l = m.Marker.labels.(u).Marker.strings in
    let ell = l.Labels.len - 1 in
    List.length
      (List.filter (fun j -> l.Labels.roots.(j) <> Labels.RStar) (List.init (max 0 ell) Fun.id))
  in
  let v = ref (-1) in
  for u = 0 to n - 1 do
    if levels_of u >= 2 && (!v < 0 || Graph.degree g u > Graph.degree g !v) then v := u
  done;
  if !v < 0 then None
  else begin
  let v = !v in
  Net.run net daemon ~rounds:(4 * Verifier.window_bound m.labels.(0));
  let first_level = (Net.state net v).Verifier.cmp.Verifier.ask_level in
  if first_level < 0 then None
  else begin
    (* wait to leave the level, then time the return to it *)
    let budget = ref 300_000 and phase = ref `Leave and start = ref 0 and answer = ref None in
    while !answer = None && !budget > 0 do
      Net.round net daemon;
      decr budget;
      let lvl = (Net.state net v).Verifier.cmp.Verifier.ask_level in
      match !phase with
      | `Leave -> if lvl <> first_level then (phase := `Return; start := Net.rounds net)
      | `Return -> if lvl = first_level then answer := Some (Net.rounds net - !start)
    done;
    !answer
  end
  end

let fig_async_gap () =
  header "F-ASY — Ask-cycle time: synchronous passive vs asynchronous handshake";
  Fmt.pr "%-6s %-6s %-8s %12s %14s %12s@." "n" "Delta" "log2 n" "sync cycle" "async cycle"
    "async/sync";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (4600 + n) in
      let delta = Graph.max_degree (Gen.random_connected st n) in
      let sync = ask_cycle_time ~mode:Verifier.Passive ~daemon:Scheduler.Sync ~seed:(4600 + n) n in
      let async =
        ask_cycle_time ~mode:Verifier.Handshake
          ~daemon:(Scheduler.Async_random (Gen.rng (4700 + n)))
          ~seed:(4600 + n) n
      in
      match (sync, async) with
      | Some s, Some a ->
          Fmt.pr "%-6d %-6d %-8d %12d %14d %12.1f@." n delta (logn n) s a
            (float_of_int a /. float_of_int s)
      | _ -> Fmt.pr "%-6d (no cycle observed)@." n)
    [ 16; 32; 64; 128 ];
  Fmt.pr
    "bounds: sync O(log^2 n) (Lemma 7.5) vs async O(Delta log^3 n) (Lemma 7.6).\n\
     The sync passive mode pays its bound up front (fixed full-cycle windows\n\
     guarantee passive observation); the async handshake confirms each comparison\n\
     actively and advances early, so its *typical* cycle is shorter while its\n\
     worst case is a Delta*log n factor above the synchronous one.@."

(* ==================================================================== *)
(* F-DD — detection distance vs number of faults f (O(f log n))          *)
(* ==================================================================== *)

let fig_detection_distance () =
  header "F-DD — detection distance vs number of faults (O(f log n) locality)";
  Fmt.pr "%-6s %-6s %14s %14s@." "n" "f" "max distance" "f*log n";
  line ();
  let n = 128 in
  List.iter
    (fun f ->
      let st = Gen.rng (4800 + f) in
      let g = Gen.random_connected st n in
      let m = Marker.run g in
      let module C = struct
        let marker = m
        let mode = Verifier.Passive
      end in
      let module P = Verifier.Make (C) in
      let module Net = Network.Make (P) in
      let net = Net.create g in
      Net.run net Scheduler.Sync ~rounds:600;
      let faults = Net.inject_faults net (Gen.rng (4900 + f)) ~count:f in
      (match Net.detection_time net Scheduler.Sync ~max_rounds:100000 with
      | Some _ ->
          let d = Net.detection_distance net ~faults in
          Fmt.pr "%-6d %-6d %14s %14d@." n f
            (match d with Some x -> string_of_int x | None -> "?")
            (f * logn n)
      | None -> Fmt.pr "%-6d %-6d (faults semantically null)@." n f))
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr "shape check: the distance column stays below (and scales no faster than) f*log n.@."

(* ==================================================================== *)
(* F-CT — construction time (Theorem 4.4: SYNC_MST is O(n))              *)
(* ==================================================================== *)

let fig_construction_time () =
  header "F-CT — construction time: SYNC_MST (O(n)) vs GHS (O(n log n)), marker included";
  Fmt.pr "%-6s %14s %10s %14s %10s %14s@." "n" "SYNC_MST" "/n" "GHS" "/n" "marker total";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (5000 + n) in
      let g = Gen.random_connected st n in
      let r = Sync_mst.run g in
      let ghs = Ssmst_baselines.Ghs.run g in
      let m = Marker.run g in
      Fmt.pr "%-6d %14d %10.1f %14d %10.1f %14d@." n r.rounds
        (float_of_int r.rounds /. float_of_int n)
        ghs.Ssmst_baselines.Ghs.rounds
        (float_of_int ghs.Ssmst_baselines.Ghs.rounds /. float_of_int n)
        m.construction_rounds)
    [ 32; 64; 128; 256; 512; 1024 ];
  Fmt.pr "shape check: SYNC_MST and marker columns stay linear (bounded /n).@."

(* ==================================================================== *)
(* F-MEM — memory: compact scheme O(log n) vs KKP 1-PLS Theta(log^2 n)   *)
(* ==================================================================== *)

let fig_memory () =
  header "F-MEM — label memory: this paper's O(log n) vs the 1-round PLS Omega(log^2 n)";
  Fmt.pr "%-6s %-8s %14s %12s %14s %12s@." "n" "log2 n" "compact bits" "/log n" "KKP bits"
    "/log^2 n";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (5100 + n) in
      let g = Gen.random_connected st n in
      let m = Marker.run g in
      let kkp = Ssmst_pls.Kkp_pls.mark m in
      let l = float_of_int (logn n) in
      Fmt.pr "%-6d %-8d %14d %12.1f %14d %12.1f@." n (logn n) m.label_bits
        (float_of_int m.label_bits /. l)
        (Ssmst_pls.Kkp_pls.max_bits kkp)
        (float_of_int (Ssmst_pls.Kkp_pls.max_bits kkp) /. (l *. l)))
    [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ];
  Fmt.pr "shape check: compact/log n bounded; KKP/log^2 n bounded while KKP/compact grows.@."

(* ==================================================================== *)
(* F-LB — the Section 9 lower-bound trade-off                            *)
(* ==================================================================== *)

let fig_lower_bound () =
  header "F-LB — Section 9: time x memory trade-off on (subdivided) hypertree instances";
  Fmt.pr "%-4s %-4s %-6s | %-26s | %-26s@." "h" "tau" "n" "compact: bits, det. rounds"
    "KKP 1-PLS: bits, det. rounds";
  line ();
  List.iter
    (fun (h, tau) ->
      let c = Lower_bound.measure ~seed:(5200 + h + tau) ~h ~tau ~positive:false in
      let k, _ =
        Ssmst_pls.Kkp_pls.measure_lower_bound ~seed:(5200 + h + tau) ~h ~tau ~positive:false
      in
      Fmt.pr "%-4d %-4d %-6d | %10d bits, %a rounds | %10d bits, %a rounds@." h tau
        c.Lower_bound.n c.Lower_bound.label_bits
        Fmt.(option ~none:(any "-") int)
        c.Lower_bound.detection_rounds k.Lower_bound.label_bits
        Fmt.(option ~none:(any "-") int)
        k.Lower_bound.detection_rounds)
    [ (3, 0); (4, 0); (5, 0); (6, 0); (3, 1); (4, 1); (3, 2) ];
  Fmt.pr
    "Lemma 9.1: tau-round verification with l-bit labels on G' gives a 1-round scheme\n\
     with O(tau*l)-bit labels on G, and [54] forces tau*l = Omega(log^2 n): compact\n\
     labels cannot detect in O(1) rounds.@."

(* ==================================================================== *)
(* ABL — ablations of the two design knobs DESIGN.md calls out            *)
(* ==================================================================== *)

(* A1: the top/bottom threshold.  The paper sets it to log n; smaller
   thresholds make more, smaller top parts (longer piece lists relative to
   part size); larger ones grow part diameters and bottom parts. *)
let ablation_threshold () =
  header "ABL-1 — partition threshold sensitivity (paper: threshold = log2 n)";
  Fmt.pr "%-12s %-8s %10s %12s %12s %12s@." "threshold" "parts" "max |P|" "max diam" "max k"
    "label bits";
  line ();
  let n = 128 in
  let st = Gen.rng 7000 in
  let g = Gen.random_connected st n in
  List.iter
    (fun t ->
      let m = Marker.run ~threshold:t g in
      let parts = m.Marker.assignment.Partition.parts in
      let maxp =
        Array.fold_left (fun acc (p : Partition.part) -> max acc (List.length p.Partition.members)) 0 parts
      in
      let maxd = Array.fold_left (fun acc (p : Partition.part) -> max acc p.Partition.diameter) 0 parts in
      let maxk =
        Array.fold_left (fun acc (p : Partition.part) -> max acc (Array.length p.Partition.pieces)) 0 parts
      in
      Fmt.pr "%-12d %-8d %10d %12d %12d %12d@." t (Array.length parts) maxp maxd maxk
        m.Marker.label_bits)
    [ 2; 4; logn n; 2 * logn n; 4 * logn n ];
  Fmt.pr
    "the paper's threshold balances part diameter (Top detection latency) against\n\
     bottom-part train length; both extremes inflate one of the columns.@."

(* A2: the comparison window factor.  Windows shorter than a train cycle
   miss comparisons (semantic faults go undetected); longer windows only
   stretch the Ask cycle linearly. *)
let ablation_window () =
  header "ABL-2 — comparison window factor (paper: a full train cycle per level)";
  Fmt.pr "%-10s %14s %18s@." "factor" "detected" "avg detection rounds";
  line ();
  let n = 32 in
  (* the window factor is a module-level knob: restore it even if a sweep
     step raises, or the ablation value leaks into every later experiment *)
  let saved = !Verifier.window_factor in
  Fun.protect
    ~finally:(fun () -> Verifier.window_factor := saved)
    (fun () ->
      List.iter
        (fun factor ->
          Verifier.window_factor := factor;
          let samples =
            List.filter_map
              (fun i ->
                detection_sample ~mode:Verifier.Passive ~daemon:Scheduler.Sync ~seed:(7100 + i) n)
              [ 0; 1; 2; 3; 4 ]
          in
          let dts = List.map fst samples in
          let avg =
            match dts with
            | [] -> Float.nan
            | _ -> float_of_int (List.fold_left ( + ) 0 dts) /. float_of_int (List.length dts)
          in
          Fmt.pr "%-10d %10d / 5 %18.0f@." factor (List.length samples) avg)
        [ 2; 5; 10; 20; 40; 80 ]);
  Fmt.pr
    "too-small windows end a level before the neighbours' trains complete a cycle,\n\
     so semantic faults can escape comparison; beyond one full cycle, larger\n\
     factors only slow the Ask rotation (and hence detection) linearly.@."

(* ==================================================================== *)
(* Shared workloads: each written once, parameterised by seed            *)
(* ==================================================================== *)

let now = Unix.gettimeofday

let wall f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A bench knob from the environment: [default] when unset; a value that
   does not parse stops the run naming the variable — never a silent
   fall-back to the default. *)
let env_knob var parse ~default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
      match parse s with
      | Some v -> v
      | None ->
          Fmt.epr "bench: %s=%S does not parse@." var s;
          exit 2)

(* The instruments the overhead gates attach, and the engine a workload
   runs on: the naive reference, or the event engine bare or
   instrumented. *)
type instrument = Monitors | Recorder | Telemetry

type engine = Naive | Make of instrument option

(* One network under test, whatever its engine and protocol. *)
type net = {
  run : int -> unit;  (* sync rounds *)
  inject : int -> int -> unit;  (* [inject seed count] uniform faults *)
  detect : unit -> int option;  (* rounds to the first alarm, at most 20 000 *)
  metrics : Metrics.t;  (* the engine's counters (Naive keeps none: zeros) *)
  digest : unit -> string;  (* of the register array *)
}

(* One workload run: the seconds of its timed window, the network as the
   run left it, and the detection round when it ran to one. *)
type outcome = { seconds : float; net : net; detection : int option }

module Engines (P : Protocol.S) = struct
  module Ref = Network.Naive (P)
  module Net = Network.Make (P)
  module Rec = Ssmst_replay.Recorder.Make (P)

  let digest states =
    Digest.to_hex (Digest.string (Marshal.to_string states [ Marshal.No_sharing ]))

  (* A fresh network on [engine]; an instrument is attached right after
     [create], before the first round.  [parent] is the claimed tree the
     monitors check (none for ss-bfs). *)
  let create ?(parent = fun _ -> None) engine g =
    match engine with
    | Naive ->
        let net = Ref.create g in
        {
          run = (fun rounds -> Ref.run net Scheduler.Sync ~rounds);
          inject = (fun seed count -> ignore (Ref.inject_faults net (Gen.rng seed) ~count));
          detect = (fun () -> Ref.detection_time net Scheduler.Sync ~max_rounds:20000);
          metrics = Metrics.create ();
          digest = (fun () -> digest (Ref.states net));
        }
    | Make inst ->
        let net = Net.create g in
        let metrics = Net.metrics net in
        (match inst with
        | None | Some Telemetry -> ()
        | Some Monitors ->
            let view =
              {
                Ssmst_obs.Monitor.graph = g;
                parent;
                bits = (fun v -> P.bits (Net.state net v));
                alarm = (fun v -> P.alarm (Net.state net v));
                peak_bits = (fun () -> Net.peak_bits net);
                any_alarm = (fun () -> Net.any_alarm net);
                change_counter =
                  (fun () -> metrics.Metrics.register_writes + metrics.Metrics.faults_injected);
              }
            in
            let mon = Ssmst_obs.Monitor.create ~metrics view in
            Net.set_round_hook net (fun () -> Ssmst_obs.Monitor.check mon ~round:(Net.rounds net))
        | Some Recorder ->
            let r = Rec.create ~interval:64 ~round0:0 g (Net.states net) in
            Net.set_write_hook net (Rec.engine_hook r (Net.states net)));
        let run rounds = Net.run net Scheduler.Sync ~rounds in
        {
          (* the observatory charges each engine run to its ledger, as
             [msst report] does *)
          run =
            (if inst = Some Monitors then fun r -> Metrics.phase metrics "settle" (fun () -> run r)
             else run);
          inject = (fun seed count -> ignore (Net.inject_faults net (Gen.rng seed) ~count));
          detect = (fun () -> Net.detection_time net Scheduler.Sync ~max_rounds:20000);
          metrics;
          digest = (fun () -> digest (Net.states net));
        }
end

module Bfs = Engines (Ssmst_protocols.Ss_bfs.P)

(* W1, a silent protocol: ss-bfs on a random 256-node graph settles 600
   rounds untimed; the timed window is one fault (seed [fault]) and the
   4096 rounds after it.  The network is quiescent almost everywhere, so
   the event engine's work follows the fault's footprint while the naive
   engine re-steps all n nodes every round. *)
let w1 ~seed ~fault =
  let g = Gen.random_connected (Gen.rng seed) 256 in
  fun engine ->
    let net = Bfs.create engine g in
    net.run 600;
    Metrics.reset net.metrics;
    let (), seconds =
      wall (fun () ->
          net.inject fault 1;
          net.run 4096)
    in
    { seconds; net; detection = None }

(* Churn: ss-bfs on a random 256-node graph under 8 bursts of 4 faults
   (seeds [faults + k]), 128 rounds apart, timed whole.  The election
   re-converges after every burst, so the dirty set stays busy (a pure
   quiescent tail would time near-free skipped rounds). *)
let churn ~seed ~faults =
  let g = Gen.random_connected (Gen.rng seed) 256 in
  fun engine ->
    let net, seconds =
      wall (fun () ->
          let net = Bfs.create engine g in
          for k = 0 to 7 do
            net.inject (faults + k) 4;
            net.run 128
          done;
          net)
    in
    { seconds; net; detection = None }

(* W2 and kin: the passive verifier on a random n-node graph, marker built
   once, timed whole — create, settle [settle] rounds (default two window
   bounds) and, given a [fault] seed, one fault and run to the first
   alarm.  The verifier's trains rotate forever, so every node writes
   every round. *)
let verifier ?settle ?fault ~seed n =
  let g = Gen.random_connected (Gen.rng seed) n in
  let m = Marker.run g in
  let module E = Engines (Verifier.Make (struct
    let marker = m
    let mode = Verifier.Passive
  end)) in
  let settle = Option.value settle ~default:(2 * Verifier.window_bound m.labels.(0)) in
  fun engine ->
    let (net, detection), seconds =
      wall (fun () ->
          let net = E.create ~parent:(Tree.parent m.Marker.tree) engine g in
          net.run settle;
          let detection =
            Option.bind fault (fun seed ->
                net.inject seed 1;
                net.detect ())
          in
          (net, detection))
    in
    { seconds; net; detection }

module Flat_bfs = Network.Flat (Ssmst_protocols.Ss_bfs.P)

let burst_rounds = 12

(* Grid burst: the packed ss-bfs election on a streamed grid of about n
   nodes, [burst_rounds] sync rounds with a 64-fault burst every 4 (seeds
   [faults + r]), the rounds sharded across [d] domains.  A run returns
   its seconds and the byte-identity witness: register file and metrics
   CSV row. *)
let grid_burst ~seed ~faults n =
  let side = max 2 (int_of_float (sqrt (float_of_int n))) in
  let g = Gen.stream_grid ~seed side side in
  ( g,
    fun d ->
      let net = Flat_bfs.create ~domains:d g in
      let (), seconds =
        wall (fun () ->
            for r = 1 to burst_rounds do
              if r mod 4 = 1 then
                ignore (Flat_bfs.inject net (Gen.rng (faults + r)) (Fault.uniform ~count:64));
              Flat_bfs.round net Scheduler.Sync
            done)
      in
      (seconds, (Flat_bfs.registers net, Metrics.to_csv_row (Flat_bfs.metrics net))) )

(* ==================================================================== *)
(* ENGINE — event-driven engine vs naive re-step engine                  *)
(* ==================================================================== *)

(* Metrics sink: rows accumulate here and are printed as CSV at the end of
   the experiment; with SSMST_METRICS_JSONL set they are also appended to
   that file as JSONL. *)
let metrics_rows : (string * Metrics.t) list ref = ref []

let sink_metrics label (m : Metrics.t) = metrics_rows := (label, m) :: !metrics_rows

let flush_metrics () =
  let rows = List.rev !metrics_rows in
  metrics_rows := [];
  Fmt.pr "@.metrics (CSV):@.label,%s@." Metrics.csv_header;
  List.iter (fun (label, m) -> Fmt.pr "%s,%s@." label (Metrics.to_csv_row m)) rows;
  match Sys.getenv_opt "SSMST_METRICS_JSONL" with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      List.iter (fun (label, m) -> output_string oc (Metrics.to_json ~label m ^ "\n")) rows;
      close_out oc;
      Fmt.pr "(metrics appended to %s)@." path

(* Each workload on both engines: the timed windows, and whether the two
   end in the same registers (and, for W2, detect on the same round).  W2
   gains from the O(1) neighbour index, the O(1) alarm predicate and no
   per-round O(n) allocations or rescans; W1 from skipping quiet nodes. *)
let fig_engine () =
  header "ENGINE — event-driven engine vs naive re-step engine (same semantics)";
  Fmt.pr "%-34s %11s %11s %10s %8s@." "workload" "naive" "engine" "speedup" "agree";
  line ();
  let on_both label w =
    let naive = w Naive and engine = w (Make None) in
    let agree =
      naive.net.digest () = engine.net.digest () && naive.detection = engine.detection
    in
    Fmt.pr "%-34s %10.4fs %10.4fs %9.1fx %8b@." label naive.seconds engine.seconds
      (naive.seconds /. engine.seconds) agree;
    engine
  in
  let e1 = on_both "W1 ss-bfs: 1 fault + 4096 rounds" (w1 ~seed:6200 ~fault:6201) in
  let m = e1.net.metrics in
  sink_metrics "ENGINE-W1:ss-bfs-n256-1-fault" m;
  Fmt.pr "    naive steps %d vs engine activations %d (writes %d, wasted %d, skipped %d)@."
    (4096 * 256) m.Metrics.activations m.Metrics.register_writes m.Metrics.wasted_steps
    m.Metrics.skipped_activations;
  let e2 = on_both "W2 verifier run_until detection" (verifier ~seed:6210 ~fault:6211 256) in
  sink_metrics "ENGINE-W2:verifier-n256-1-fault" e2.net.metrics;
  Fmt.pr "    detection after %a rounds (both engines agree on the round)@."
    Fmt.(option ~none:(any "-") int)
    e2.detection;
  flush_metrics ();
  Fmt.pr
    "the differential suite (test/test_engine_diff.ml) asserts state-array and\n\
     round-count equality of the two engines on 240+ random instances.@."

(* ==================================================================== *)
(* CAMPAIGN — typed fault-model campaign on the verifier                 *)
(* ==================================================================== *)

(* A compact instance of the msst-campaign sweep: per-trial detection time
   and distance for every fault model, aggregated min/median/p95 across
   seeds, with the per-trial rows emitted as CSV (and JSONL through the
   same env-var sink convention as the engine metrics). *)
let fig_campaign () =
  header "CAMPAIGN — fault models x f: detection time / distance vs O(f log n)";
  let families = [ "random"; "grid" ] and sizes = [ 64 ] in
  let fault_counts = [ 1; 2; 4; 8 ] and models = [ "uniform"; "clustered"; "near-root" ] in
  let trials =
    Verifier_campaign.sweep ~families ~sizes ~fault_counts ~models ~seeds:3 ~seed:9000
      ~max_rounds:20000 ()
  in
  Fmt.pr "%a" Campaign.pp_agg_table (Campaign.aggregate trials);
  Fmt.pr "@.f*log n reference: %a@."
    Fmt.(list ~sep:comma string)
    (List.map (fun f -> Fmt.str "f=%d -> %d" f (f * logn 64)) fault_counts);
  Fmt.pr "@.per-trial rows (CSV):@.%s@." Campaign.csv_header;
  List.iter (fun t -> Fmt.pr "%s@." (Campaign.trial_to_csv t)) trials;
  (match Sys.getenv_opt "SSMST_CAMPAIGN_JSONL" with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Campaign.write_jsonl oc trials;
      close_out oc;
      Fmt.pr "(campaign trials appended to %s)@." path);
  Fmt.pr
    "shape check: dd columns stay within a constant factor of f*log n for the random\n\
     placements and shrink for the clustered/near-root ones (faults share a ball).@."


(* ==================================================================== *)
(* The overhead harness: OBS, REPLAY and PROF                            *)
(* ==================================================================== *)

(* The minimal JSON reader for the bench artifacts lives in
   [Ssmst_obs.Json_lite] (the trend report, the perf-trajectory section
   and the unit tests share it). *)
module Json = Ssmst_obs.Json_lite

let artifact_path var default = Option.value ~default (Sys.getenv_opt var)

(* Never let an un-gated run (too few cores for the scaling gate) clobber
   an artifact that records a gated one: REPORT would then chart the
   degraded speedups as if they were measured on real parallelism — the
   PR 5 blind spot, where a 1-core container's 0.88x @ -j 4 sat in the
   trend table as an apparent regression.  SSMST_PAR_FORCE=1 overrides.
   Returns whether the artifact was written. *)
let write_artifact_guarded ~json_path ~gated contents =
  let existing_gated =
    match open_in json_path with
    | exception Sys_error _ -> None
    | ic ->
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (match Json.parse body with
        | j -> Json.bool_opt (Json.mem "gated" j)
        | exception Json.Bad _ -> None)
  in
  let force = Sys.getenv_opt "SSMST_PAR_FORCE" = Some "1" in
  match existing_gated with
  | Some true when (not gated) && not force ->
      Fmt.pr
        "NOT overwriting %s: it records a gated (>= 4 cores) run and this run is un-gated; \
         set SSMST_PAR_FORCE=1 to overwrite anyway.@."
        json_path;
      false
  | _ ->
      let oc = open_out json_path in
      output_string oc contents;
      close_out oc;
      Fmt.pr "(machine-readable results written to %s)@." json_path;
      true

(* Print the failures of a gate and exit 1, or return. *)
let verdict id = function
  | [] -> ()
  | fails ->
      Fmt.pr "%s gate failed: %a@." id Fmt.(list ~sep:semi string) fails;
      exit 1

let with_ledger tel f =
  Ssmst_obs.Telemetry.install tel;
  Fun.protect ~finally:Ssmst_obs.Telemetry.uninstall f

(* The global half of an instrument: the phase ledger it installs around a
   run ([msst report]'s clockless one for the observatory, a clocked
   profiler for PROF).  The per-network half is attached by
   {!Engines.create}. *)
let framed inst f =
  match inst with
  | Monitors -> with_ledger (Ssmst_obs.Telemetry.logical ()) f
  | Telemetry -> with_ledger (Ssmst_obs.Telemetry.create ()) f
  | Recorder -> f ()

(* An overhead row: a workload's timed window and counters on the given
   engine, with how many interleaved off/on pairs it needs (short windows
   need more to converge); an ungated row is informational. *)
type row = { name : string; reps : int; gated : bool; run : engine -> float * Metrics.t }

let row ?(gated = true) ~reps name run = { name; reps; gated; run }

let of_outcome w engine =
  let o = w engine in
  (o.seconds, o.net.metrics)

type measured = {
  row : row;
  off_s : float;
  on_s : float;
  overhead : float;
  identical : bool;  (* every run's metrics CSV equals the bare warm-up's *)
  rounds : int;  (* of the instrumented timed window *)
  writes : int;  (* register writes + injected faults, likewise *)
}

let median a =
  Array.sort compare a;
  a.(Array.length a / 2)

(* The one off/on timer.  Per row: a warm-up pair, then [reps] pairs
   interleaved and alternating which side runs first, so drift in the
   host's load lands on both sides; each side's figure is its median (a
   best-of compares the two luckiest runs and flaps under noise).  Every
   run's metrics CSV must equal the bare warm-up's: an instrument stays
   out-of-band or the gate fails.  Returns the rows and the failures. *)
let overhead ~label ~budget inst rows =
  Fmt.pr "%-38s %12s %12s %10s %9s@." "workload" (label ^ " off") (label ^ " on") "overhead"
    "identical";
  line ();
  let measure r =
    let side on =
      let s, m =
        if on then framed inst (fun () -> r.run (Make (Some inst))) else r.run (Make None)
      in
      let writes = m.Metrics.register_writes + m.Metrics.faults_injected in
      (s, Metrics.to_csv_row m, m.Metrics.rounds, writes)
    in
    let _, reference, _, _ = side false in
    let _, warm, rounds, writes = side true in
    let identical = ref (warm = reference) in
    let off = Array.make r.reps 0. and on_ = Array.make r.reps 0. in
    let sample i on =
      let s, csv, _, _ = side on in
      (if on then on_ else off).(i) <- s;
      if csv <> reference then identical := false
    in
    for i = 0 to r.reps - 1 do
      sample i (i mod 2 = 1);
      sample i (i mod 2 = 0)
    done;
    let off_s = median off and on_s = median on_ in
    let overhead = (on_s -. off_s) /. off_s in
    Fmt.pr "%-38s %9.2f ms %9.2f ms %+9.1f%% %9s%s@." r.name (1000. *. off_s) (1000. *. on_s)
      (100. *. overhead)
      (if !identical then "yes" else "NO")
      (if r.gated then "" else "  (info)");
    Fmt.pr "    %d rounds, %d write(s), %.0f events/sec instrumented@." rounds writes
      (float_of_int writes /. on_s);
    { row = r; off_s; on_s; overhead; identical = !identical; rounds; writes }
  in
  let measured = List.map measure rows in
  let fails =
    List.concat_map
      (fun m ->
        (if m.row.gated && m.overhead > budget then
           [ Fmt.str "%s: %+.1f%% over the %.0f%% budget" m.row.name (100. *. m.overhead)
               (100. *. budget) ]
         else [])
        @
        if m.identical then []
        else
          [ Fmt.str "%s: metrics CSV differs with the %s on (not out-of-band)" m.row.name label ])
      measured
  in
  if fails = [] then
    Fmt.pr "%s overhead within the %.0f%% budget; metrics identical off and on.@." label
      (100. *. budget);
  (measured, fails)

let within budget = List.for_all (fun m -> (not m.row.gated) || m.overhead <= budget)

(* ==================================================================== *)
(* OBS — runtime observatory overhead                                    *)
(* ==================================================================== *)

(* The observability tentpole's cost contract: running with the full
   observatory attached (online invariant monitors on the engine's round
   hook plus the clockless phase ledger [msst report] installs, each
   engine run charged to it as a phase) must stay within 15% of the bare
   engine.  The monitors' change-counter caching carries the churning
   workload; the verifier is the worst case (every node writes every
   round, so the monitors re-evaluate every round). *)
let obs_budget = 0.15

let fig_obs () =
  header "OBS — runtime observatory overhead: probes on vs off (budget: 15%)";
  let _, fails =
    overhead ~label:"probes" ~budget:obs_budget Monitors
      [
        row ~reps:15 "ss-bfs + faults n=256, 1024 rounds"
          (of_outcome (churn ~seed:8100 ~faults:8110));
        row ~reps:9 "verifier n=128, 600 rounds" (of_outcome (verifier ~settle:600 ~seed:8200 128));
      ]
  in
  verdict "OBS" fails

(* ==================================================================== *)
(* REPLAY — flight recorder overhead + BENCH_PR4.json                    *)
(* ==================================================================== *)

(* The flight recorder's cost contract: the ENGINE workloads with the
   recorder attached (checkpoint interval k=64, every register write
   mirrored and pushed to the delta ring) must stay within 20% of the bare
   engine.  Rows land in BENCH_PR4.json (or $SSMST_BENCH_JSON). *)
let replay_budget = 0.20

let fig_replay () =
  header "REPLAY — flight recorder overhead: k=64 checkpoints (budget: 20%)";
  let measured, fails =
    overhead ~label:"recorder" ~budget:replay_budget Recorder
      [
        row ~reps:31 "ENGINE-W1 ss-bfs n=256, 1 fault" (of_outcome (w1 ~seed:8300 ~fault:8311));
        row ~reps:5 "ENGINE-W2 verifier n=256, detection"
          (of_outcome (verifier ~fault:8411 ~seed:8400 256));
        (* informational stress row: fault bursts keep the dirty set
           saturated, so nearly every activation is a recorded write *)
        row ~gated:false ~reps:9 "churn ss-bfs n=256, 8x4 faults"
          (of_outcome (churn ~seed:8300 ~faults:8310));
      ]
  in
  ignore
    (write_artifact_guarded ~gated:true
       ~json_path:(artifact_path "SSMST_BENCH_JSON" "BENCH_PR4.json")
       (Printf.sprintf
          {|{"pr":4,"checkpoint_interval":64,"budget_pct":%.1f,"workloads":[%s],"within_budget":%b}
|}
          (100. *. replay_budget)
          (String.concat ","
             (List.map
                (fun m ->
                  Printf.sprintf
                    {|{"name":"%s","wall_off_s":%.6f,"wall_on_s":%.6f,"rounds":%d,"writes":%d,"events_per_sec":%.0f,"overhead_pct":%.2f,"gated":%b}|}
                    (Trace.json_escape m.row.name) m.off_s m.on_s m.rounds m.writes
                    (float_of_int m.writes /. m.on_s)
                    (100. *. m.overhead) m.row.gated)
                measured))
          (within replay_budget measured)));
  verdict "REPLAY" fails

(* ==================================================================== *)
(* PROF — telemetry overhead gate + BENCH_PR9.json / BENCH_PR10.json     *)
(* ==================================================================== *)

(* The telemetry layer's cost contract, on the same ENGINE workloads (same
   graphs, seeds and windows) the flight recorder is gated on, so the bare
   wall_off_s columns of BENCH_PR4.json and BENCH_PR9.json chart one
   experiment across PRs: installing a profiler on the global Probe hook
   must stay within 5% of the bare run.  The disabled side needs no gate
   of its own: with no sink installed every probe is one ref read and a
   branch, so the bare baseline IS the disabled path.  The full
   seven-observable identity suite at -d 1/2/4 lives in test_domains.
   Rows land in BENCH_PR9.json (or $SSMST_BENCH_PR9_JSON). *)
let prof_budget = 0.05

(* The dense frontier's contract (PR 10): under this share (percent) of
   the flat.* round wall time at scale; the list frontier sat at ~42%. *)
let frontier_budget = 25.

(* The per-phase breakdown EXPERIMENTS.md quotes: the grid-burst workload
   at n ~= 250k (SSMST_PROF_BREAKDOWN_N; 0 skips) with a live profiler at
   -d min(4, cores) — flat.frontier vs flat.compute vs flat.apply.
   Records the frontier share and allocation per round in BENCH_PR10.json
   (or $SSMST_BENCH_PR10_JSON); returns the frontier gate's failures. *)
let prof_breakdown n =
  if n <= 0 then []
  else begin
    let g, run = grid_burst ~seed:7700 ~faults:9000 n in
    let d = min 4 (Ssmst_parallel.Pool.cpu_count ()) in
    let tel = Ssmst_obs.Telemetry.create () in
    ignore (with_ledger tel (fun () -> run d));
    Fmt.pr "@.per-phase breakdown — flat parallel round, grid n=%d, -d %d:@.@.%s@." (Graph.n g) d
      (Ssmst_obs.Telemetry.to_markdown tel);
    (* the two trajectory metrics the REPORT regression flag keys on *)
    let phases =
      List.filter
        (fun (p : Ssmst_obs.Telemetry.phase) -> String.starts_with ~prefix:"flat." p.name)
        (Ssmst_obs.Telemetry.phases tel)
    in
    let sum f = List.fold_left (fun acc p -> acc +. f p) 0. phases in
    let wall = sum (fun p -> p.Ssmst_obs.Telemetry.wall_s) in
    let frontier_wall = sum (fun p -> if p.name = "flat.frontier" then p.wall_s else 0.) in
    let share = if wall > 0. then 100. *. frontier_wall /. wall else 0. in
    let minor_per_round = sum (fun p -> p.minor_words) /. float_of_int burst_rounds in
    Fmt.pr "frontier share of round wall: %.1f%% (budget < %.0f%%)@." share frontier_budget;
    Fmt.pr "minor words per round (flat.* phases): %.3e@." minor_per_round;
    ignore
      (write_artifact_guarded ~gated:true
         ~json_path:(artifact_path "SSMST_BENCH_PR10_JSON" "BENCH_PR10.json")
         (Printf.sprintf
            {|{"pr":10,"gated":true,"frontier_budget_pct":%.1f,"workloads":[{"name":"flat grid n=%d -d %d breakdown","frontier_share_pct":%.2f,"minor_words_per_round":%.1f,"wall_s":%.6f}],"within_budget":%b}
|}
            frontier_budget (Graph.n g) d share minor_per_round wall (share < frontier_budget)));
    if share < frontier_budget then []
    else [ Fmt.str "frontier share %.1f%% >= budget %.0f%%" share frontier_budget ]
  end

let fig_prof () =
  header "PROF — telemetry overhead: probes on the ENGINE workloads (budget: 5%)";
  let breakdown_n = env_knob "SSMST_PROF_BREAKDOWN_N" int_of_string_opt ~default:250_000 in
  (* the flat engine's probe set (frontier/compute/apply), informational:
     its wall time breathes with the allocator *)
  let g3 = Gen.random_connected (Gen.rng 8500) 4096 in
  let flat_election _ =
    let net = Flat_bfs.create g3 in
    let (), s = wall (fun () -> Flat_bfs.run net Scheduler.Sync ~rounds:200) in
    (s, Flat_bfs.metrics net)
  in
  let measured, fails =
    overhead ~label:"probes" ~budget:prof_budget Telemetry
      [
        row ~reps:31 "ENGINE-W1 ss-bfs n=256, 1 fault" (of_outcome (w1 ~seed:8300 ~fault:8311));
        row ~reps:5 "ENGINE-W2 verifier n=256, detection"
          (of_outcome (verifier ~fault:8411 ~seed:8400 256));
        row ~gated:false ~reps:5 "flat ss-bfs n=4096, election" flat_election;
      ]
  in
  let frontier_fails = prof_breakdown breakdown_n in
  ignore
    (write_artifact_guarded ~gated:true
       ~json_path:(artifact_path "SSMST_BENCH_PR9_JSON" "BENCH_PR9.json")
       (Printf.sprintf
          {|{"pr":9,"budget_pct":%.1f,"gated":true,"identity_ok":%b,"workloads":[%s],"within_budget":%b}
|}
          (100. *. prof_budget)
          (List.for_all (fun m -> m.identical) measured)
          (String.concat ","
             (List.map
                (fun m ->
                  Printf.sprintf
                    {|{"name":"%s","wall_off_s":%.6f,"wall_on_s":%.6f,"overhead_pct":%.2f,"identical":%b,"gated":%b}|}
                    (Trace.json_escape m.row.name) m.off_s m.on_s (100. *. m.overhead)
                    m.identical m.row.gated)
                measured))
          (within prof_budget measured)));
  verdict "PROF" (fails @ frontier_fails)

(* ==================================================================== *)
(* The scaling harness: PAR and DOMAINS                                  *)
(* ==================================================================== *)

(* The one k-way scaling harness: [run k] at k = 1, 2, 4 returns seconds
   and an output witness, and every k must reproduce k = 1's witness
   exactly — checked on every run, unconditionally.  The speedup at k = 4
   is a physical claim, so its gate is core-aware: enforced only on >= 4
   cores (and, for domains, a multicore runtime); otherwise the artifact
   records gated=false, written through {!write_artifact_guarded}.
   [key] names k in the table and the artifact ("jobs", "domains");
   [fields_pre]/[fields_post] are the artifact's own fields before
   "cores" and before "workloads". *)
let scaling ~id ~key ~flag ~pr ?(multicore = true) ?(fields_pre = "") ?(fields_post = "")
    ~min_speedup ~json_path run =
  Fmt.pr "%-10s %12s %10s %10s@." key "wall" "speedup" "identical";
  line ();
  let t1, out1 = run 1 in
  Fmt.pr "%-10d %9.3f s %10s %10s@." 1 t1 "1.00x" "-";
  let rows =
    (1, t1, 1.0, true)
    :: List.map
         (fun k ->
           let tk, out = run k in
           let same = out = out1 in
           Fmt.pr "%-10d %9.3f s %9.2fx %10b@." k tk (t1 /. tk) same;
           (k, tk, t1 /. tk, same))
         [ 2; 4 ]
  in
  let cores = Ssmst_parallel.Pool.cpu_count () in
  let gated = cores >= 4 && multicore in
  let identical = List.for_all (fun (_, _, _, same) -> same) rows in
  let speedup4 = List.fold_left (fun acc (k, _, s, _) -> if k = 4 then s else acc) 0. rows in
  let within = identical && ((not gated) || speedup4 >= min_speedup) in
  Fmt.pr "@.%d core(s); speedup gate (>= %.2fx at %s 4) %s@." cores min_speedup flag
    (if gated then "enforced"
     else if not multicore then "informational (sequential runtime — OCaml < 5.0)"
     else "informational (needs >= 4 cores)");
  if not gated then Fmt.pr "gate skipped: %d cores (scaling gate needs >= 4)@." cores;
  ignore
    (write_artifact_guarded ~json_path ~gated
       (Printf.sprintf
          {|{"pr":%d,%s"cores":%d,"min_speedup":%.2f,"gated":%b,%s"workloads":[%s],"identical":%b,"within_budget":%b}
|}
          pr fields_pre cores min_speedup gated fields_post
          (String.concat ","
             (List.map
                (fun (k, t, s, same) ->
                  Printf.sprintf {|{"%s":%d,"wall_s":%.6f,"speedup":%.3f,"identical":%b}|} key k t
                    s same)
                rows))
          identical within));
  verdict id
    ((if identical then []
      else [ Fmt.str "determinism violated: output at %s 2/4 differs from %s 1" flag flag ])
    @
    if gated && speedup4 < min_speedup then
      [ Fmt.str "scaling budget missed: %.2fx at %s 4 (target %.2fx)" speedup4 flag min_speedup ]
    else [])

(* ==================================================================== *)
(* PAR — parallel campaign scaling + byte-determinism + BENCH_PR5.json   *)
(* ==================================================================== *)

(* The fork pool's two contracts, measured on the real campaign sweep: the
   CSV/JSONL bytes are identical for every -j, and -j 4 is at least 2.5x
   faster than sequential (SSMST_PAR_MIN_SPEEDUP overrides the target).
   Results land in BENCH_PR5.json (or $SSMST_BENCH_PR5_JSON). *)
let fig_par () =
  header "PAR — parallel campaign sweep: fork-pool scaling vs sequential";
  let families = [ "random"; "grid" ] and sizes = [ 48; 64 ] and seeds = 3 in
  let fault_counts = [ 1; 2; 4 ] and models = [ "uniform"; "clustered"; "near-root" ] in
  let instances = List.length families * List.length sizes * seeds in
  let per_instance = List.length fault_counts * List.length models in
  Fmt.pr "%d instances x %d trials each; %d trials total@." instances per_instance
    (instances * per_instance);
  (* the exact bytes msst campaign would write: CSV document + JSONL *)
  let run jobs =
    let trials, s =
      wall (fun () ->
          Verifier_campaign.sweep ~jobs ~families ~sizes ~fault_counts ~models ~seeds ~seed:9500
            ~max_rounds:20000 ())
    in
    ( s,
      String.concat "\n" (Campaign.csv_header :: List.map Campaign.trial_to_csv trials)
      ^ "\n"
      ^ String.concat "\n" (List.map Campaign.trial_to_json trials) )
  in
  scaling ~id:"PAR" ~key:"jobs" ~flag:"-j" ~pr:5
    ~fields_post:(Printf.sprintf {|"trials":%d,|} (instances * per_instance))
    ~min_speedup:(max 1.0 (env_knob "SSMST_PAR_MIN_SPEEDUP" float_of_string_opt ~default:2.5))
    ~json_path:(artifact_path "SSMST_BENCH_PR5_JSON" "BENCH_PR5.json")
    run

(* ==================================================================== *)
(* SCALE — the million-node unlock: flat engine over streamed CSR graphs *)
(* ==================================================================== *)

(* The flat-core acceptance experiment: stream-build n ∈ {10^4, 10^5, 10^6}
   instances of each family directly into CSR (no intermediate edge list),
   run the packed ss-bfs election on {!Network.Flat} and gate

   - measured bytes/node: [8 * words] must stay within 64·⌈log2 n⌉ bits
     (the Section 2.4 memory-size claim, in whole 64-bit words);
   - throughput: at least $SSMST_SCALE_MIN_RPS rounds/sec (default 1.0 —
     a liveness floor, not a performance claim; the printed numbers are
     the claim);
   - residency: the VmHWM high-water delta of each instance must stay
     within 6x its accounted storage (CSR arrays + register file) plus a
     fixed GC slack — the "memory is the register file" honesty check.

   CI trims the sweep with SSMST_SCALE_MAX_N (the smoke job runs 10^5).
   Results land in BENCH_PR6.json (or $SSMST_BENCH_PR6_JSON). *)

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            acc
        | line ->
            let acc =
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                try
                  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                    (fun k -> Some k)
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc
              else acc
            in
            go acc
      in
      go None

(* the streamed instance of each family closest to the target size *)
let scale_instance family target seed =
  match family with
  | "grid" ->
      let side = int_of_float (sqrt (float_of_int target)) in
      Gen.stream_grid ~seed side side
  | "random" -> Gen.stream_random ~seed target
  | "hypertree" ->
      (* n = 2^(h+1) - 1: the height whose size is nearest the target *)
      let size h = (1 lsl (h + 1)) - 1 in
      let rec fit h = if size h >= target then h else fit (h + 1) in
      let h = fit 1 in
      let h = if h > 1 && target - size (h - 1) < size h - target then h - 1 else h in
      Gen.stream_hypertree ~seed h
  | f -> invalid_arg ("scale_instance: unknown family " ^ f)

let fig_scale () =
  header "SCALE — flat engine over streamed CSR instances (packed ss-bfs election)";
  let module P = Ssmst_protocols.Ss_bfs.P in
  let module F = Network.Flat (P) in
  let max_n = max 1 (env_knob "SSMST_SCALE_MAX_N" int_of_string_opt ~default:1_000_000) in
  let min_rps = env_knob "SSMST_SCALE_MIN_RPS" float_of_string_opt ~default:0.25 in
  let sizes = List.filter (fun n -> n <= max_n) [ 10_000; 100_000; 1_000_000 ] in
  let rounds = 20 in
  (* SSMST_DOMAINS > 1 runs every instance's sync rounds domain-parallel;
     states/metrics are byte-identical, only rounds/s moves *)
  let domains = Ssmst_parallel.Domain_pool.domains_from_env ~var:"SSMST_DOMAINS" ~default:1 () in
  if domains > 1 then
    Fmt.pr "sync rounds sharded across %d domains (multicore runtime: %b)@." domains
      Ssmst_parallel.Domain_pool.available;
  Fmt.pr "%-10s %-9s %8s %6s %9s %9s %10s %9s %8s@." "family" "n" "build" "B/node" "budget"
    "run" "rounds/s" "rss MB" "rss ok";
  line ();
  let rows = ref [] in
  List.iter
    (fun target ->
      List.iter
        (fun family ->
          let hwm0 = Option.value ~default:0 (vm_hwm_kb ()) in
          let g, build_s = wall (fun () -> scale_instance family target (6400 + target)) in
          let n = Graph.n g in
          let net, create_s = wall (fun () -> F.create ~domains g) in
          let (), run_s = wall (fun () -> F.run net Scheduler.Sync ~rounds) in
          let rps = float_of_int rounds /. run_s in
          let bytes_per_node = F.measured_bytes_per_node net in
          let budget_ok = Memory.within_log_budget ~c:64 ~n ~words:(F.words net) in
          let hwm1 = Option.value ~default:0 (vm_hwm_kb ()) in
          let rss_delta_mb = float_of_int (hwm1 - hwm0) /. 1024. in
          let accounted_mb =
            float_of_int ((8 * Graph.storage_words g) + (bytes_per_node * n))
            /. (1024. *. 1024.)
          in
          (* 6x accounted + 256 MB GC slack; only meaningful when this
             instance actually raised the high-water mark *)
          let rss_ok = rss_delta_mb <= (6. *. accounted_mb) +. 256. in
          Fmt.pr "%-10s %-9d %7.2fs %6d %9s %8.2fs %10.2f %9.1f %8b@." family n
            (build_s +. create_s) bytes_per_node
            (if budget_ok then "ok" else "OVER")
            run_s rps rss_delta_mb rss_ok;
          rows :=
            (family, n, build_s +. create_s, bytes_per_node, budget_ok, run_s, rps,
             rss_delta_mb, accounted_mb, rss_ok)
            :: !rows)
        [ "grid"; "random"; "hypertree" ])
    sizes;
  let rows = List.rev !rows in
  let within =
    List.for_all
      (fun (_, _, _, _, budget_ok, _, rps, _, _, rss_ok) ->
        budget_ok && rss_ok && rps >= min_rps)
      rows
  in
  Fmt.pr "@.modeled bound: 64 * ceil(log2 n) bits/node; measured: 8 * words bytes/node.@.";
  ignore
    (write_artifact_guarded ~gated:true
       ~json_path:(artifact_path "SSMST_BENCH_PR6_JSON" "BENCH_PR6.json")
       (Printf.sprintf
          {|{"pr":6,"engine":"flat","protocol":"ss-bfs","rounds":%d,"max_n":%d,"domains":%d,"min_rounds_per_sec":%.2f,"workloads":[%s],"within_budget":%b}
|}
          rounds max_n domains min_rps
          (String.concat ","
             (List.map
                (fun (family, n, build_s, bpn, budget_ok, run_s, rps, rss, acc, rss_ok) ->
                  Printf.sprintf
                    {|{"family":"%s","n":%d,"build_s":%.3f,"bytes_per_node":%d,"log_budget_ok":%b,"run_s":%.3f,"rounds_per_sec":%.1f,"rss_delta_mb":%.1f,"accounted_mb":%.1f,"rss_ok":%b}|}
                    family n build_s bpn budget_ok run_s rps rss acc rss_ok)
                rows))
          within));
  if not within then begin
    Fmt.pr "SCALE gates missed (see the budget/rss columns above).@.";
    exit 1
  end

(* ==================================================================== *)
(* DOMAINS — intra-instance scaling: Flat sync rounds across domains     *)
(* ==================================================================== *)

(* The grid-burst workload (n = SSMST_DOMAINS_N, default 250k) with its
   sync rounds sharded across -d 1/2/4 domains: the register file and the
   metrics CSV row must be byte-identical at every domain count, and -d 4
   must be >= 2x faster on a gated host (SSMST_DOMAIN_MIN_SPEEDUP
   overrides).  The bursts keep the frontier wide: a converged election is
   quiescent and has nothing to parallelize.  Results land in
   BENCH_PR7.json (or $SSMST_BENCH_PR7_JSON). *)
let fig_domains () =
  header "DOMAINS — domain-parallel sync rounds on one Network.Flat instance";
  let n = max 1024 (env_knob "SSMST_DOMAINS_N" int_of_string_opt ~default:250_000) in
  let g, run = grid_burst ~seed:7700 ~faults:9000 n in
  let multicore = Ssmst_parallel.Domain_pool.available in
  Fmt.pr "grid n=%d, %d sync rounds with fault bursts; multicore runtime: %b@." (Graph.n g)
    burst_rounds multicore;
  scaling ~id:"DOMAINS" ~key:"domains" ~flag:"-d" ~pr:7 ~multicore
    ~fields_pre:
      (Printf.sprintf {|"engine":"flat","protocol":"ss-bfs","n":%d,"rounds":%d,|} (Graph.n g)
         burst_rounds)
    ~min_speedup:(max 1.0 (env_knob "SSMST_DOMAIN_MIN_SPEEDUP" float_of_string_opt ~default:2.0))
    ~json_path:(artifact_path "SSMST_BENCH_PR7_JSON" "BENCH_PR7.json")
    run

(* ==================================================================== *)
(* REPORT — merge every BENCH_*.json into one trend table                *)
(* ==================================================================== *)

(* One line summarizing a workload entry, tolerant of each PR's shape.
   [gated]/[cores] come from the enclosing artifact: a speedup measured on
   an un-gated run (too few cores for the parallelism to be physical) is
   NOT a measurement and must not read like one — render it SKIPPED
   instead of charting a 1-core 0.88x as a regression. *)
let workload_headline ~gated ~cores (w : Json.t) =
  let name =
    match (Json.str_opt (Json.mem "name" w), Json.str_opt (Json.mem "family" w)) with
    | Some n, _ -> n
    | None, Some f -> (
        match Json.num_opt (Json.mem "n" w) with
        | Some n -> Printf.sprintf "%s n=%.0f" f n
        | None -> f)
    | None, None -> (
        match
          (Json.num_opt (Json.mem "jobs" w), Json.num_opt (Json.mem "domains" w))
        with
        | Some j, _ -> Printf.sprintf "-j %.0f" j
        | None, Some d -> Printf.sprintf "-d %.0f" d
        | None, None -> "?")
  in
  let speedup =
    match Json.num_opt (Json.mem "speedup" w) with
    | None -> None
    | Some s when gated -> Some (Printf.sprintf "speedup %.2fx" s)
    | Some _ -> Some (Printf.sprintf "speedup SKIPPED (%.0f core(s))" cores)
  in
  let metrics =
    List.filter_map
      (fun (key, fmt) ->
        Option.map (fun v -> Printf.sprintf fmt v) (Json.num_opt (Json.mem key w)))
      [
        ("overhead_pct", "overhead %+.1f%%");
        ("rounds_per_sec", "%.1f rounds/s");
        ("bytes_per_node", "%.0f B/node");
        ("rss_delta_mb", "rss %.1f MB");
      ]
  in
  (name, String.concat ", " (Option.to_list speedup @ metrics))

let fig_report () =
  header "REPORT — merged bench artifacts (BENCH_*.json)";
  let files =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json"
           && f <> "BENCH_REPORT.json")
    |> List.sort compare
  in
  if files = [] then Fmt.pr "no BENCH_*.json artifacts in the current directory.@."
  else begin
    let reports =
      List.filter_map
        (fun file ->
          let ic = open_in file in
          let len = in_channel_length ic in
          let body = really_input_string ic len in
          close_in ic;
          match Json.parse body with
          | j -> Some (file, j)
          | exception Json.Bad msg ->
              Fmt.pr "(skipping %s: %s)@." file msg;
              None)
        files
    in
    let b = Buffer.create 4096 in
    let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    out "# Bench trend report";
    out "";
    (* cores + gating status first: a speedup row from a 2-core container
       and one from a 16-core workstation are different experiments *)
    List.iter
      (fun (file, j) ->
        match Json.num_opt (Json.mem "cores" j) with
        | Some cores ->
            let gated = Option.value ~default:true (Json.bool_opt (Json.mem "gated" j)) in
            out "Parallel gate (%s): %.0f core(s), scaling gate %s." file cores
              (if gated then "ENFORCED"
               else Printf.sprintf "SKIPPED — %.0f cores (needs >= 4)" cores)
        | None -> ())
      reports;
    out "";
    out "| artifact | pr | workloads | cores | gated | within budget |";
    out "|---|---|---|---|---|---|";
    List.iter
      (fun (file, j) ->
        let num k = match Json.num_opt (Json.mem k j) with Some f -> Printf.sprintf "%.0f" f | None -> "-" in
        let bool k =
          match Json.bool_opt (Json.mem k j) with
          | Some true -> "yes"
          | Some false -> "NO"
          | None -> "-"
        in
        out "| %s | %s | %d | %s | %s | %s |" file (num "pr")
          (List.length (Json.arr (Json.mem "workloads" j)))
          (num "cores") (bool "gated") (bool "within_budget"))
      reports;
    out "";
    out "## Workloads";
    out "";
    List.iter
      (fun (file, j) ->
        out "### %s" file;
        out "";
        (* artifacts without a cores field predate the parallel gates and
           report no speedups; treat them as gated so nothing is hidden *)
        let gated = Option.value ~default:true (Json.bool_opt (Json.mem "gated" j)) in
        let cores = Option.value ~default:1. (Json.num_opt (Json.mem "cores" j)) in
        List.iter
          (fun w ->
            let name, metrics = workload_headline ~gated ~cores w in
            out "- %s%s" name (if metrics = "" then "" else ": " ^ metrics))
          (Json.arr (Json.mem "workloads" j));
        out "")
      reports;
    (* ---- perf trajectory ----------------------------------------------
       Chart every numeric gate metric per (workload, metric) across the
       per-PR artifacts, delta against the previous PR that recorded it,
       and flag a regression when a *gated* metric worsens by more than
       10%.  The wall_off_s series is the backbone: PROF's ENGINE
       workloads replay the same graphs/seeds/windows PR after PR, so the
       telemetry-off wall time is one experiment measured repeatedly. *)
    let worse_if_up =
      [
        "overhead_pct"; "wall_s"; "wall_on_s"; "wall_off_s"; "run_s"; "build_s";
        "bytes_per_node"; "rss_delta_mb"; "frontier_share_pct"; "minor_words_per_round";
      ]
    and worse_if_down = [ "rounds_per_sec"; "speedup"; "events_per_sec" ] in
    let series = Hashtbl.create 32 and keys_rev = ref [] in
    let add key pt =
      match Hashtbl.find_opt series key with
      | None ->
          keys_rev := key :: !keys_rev;
          Hashtbl.add series key [ pt ]
      | Some pts -> Hashtbl.replace series key (pt :: pts)
    in
    List.iter
      (fun (_file, j) ->
        match Json.num_opt (Json.mem "pr" j) with
        | None -> ()
        | Some pr ->
            let art_gated =
              Option.value ~default:true (Json.bool_opt (Json.mem "gated" j))
            in
            let cores = Option.value ~default:1. (Json.num_opt (Json.mem "cores" j)) in
            List.iter
              (fun w ->
                let name, _ = workload_headline ~gated:art_gated ~cores w in
                let w_gated =
                  Option.value ~default:art_gated (Json.bool_opt (Json.mem "gated" w))
                in
                List.iter
                  (fun key ->
                    match Json.num_opt (Json.mem key w) with
                    | Some v -> add (name, key) (pr, v, w_gated)
                    | None -> ())
                  (worse_if_up @ worse_if_down))
              (Json.arr (Json.mem "workloads" j)))
      reports;
    let traj_rows =
      List.rev_map
        (fun ((wname, metric) as key) ->
          let pts =
            List.sort
              (fun (a, _, _) (b, _, _) -> compare (a : float) b)
              (List.rev (Hashtbl.find series key))
          in
          let chart =
            String.concat " -> "
              (List.map (fun (pr, v, _) -> Printf.sprintf "%.0f:%.4g" pr v) pts)
          in
          let delta, regression =
            match List.rev pts with
            | (_, last, g_last) :: (_, prev, _) :: _ when prev <> 0. ->
                let pct = 100. *. (last -. prev) /. Float.abs prev in
                let worsened = if List.mem metric worse_if_down then -.pct else pct in
                (Some pct, g_last && worsened > 10.)
            | _ -> (None, false)
          in
          (wname, metric, pts, chart, delta, regression))
        !keys_rev
    in
    out "## Perf trajectory";
    out "";
    if traj_rows = [] then out "(no per-PR numeric series yet)"
    else begin
      out "| workload | metric | trajectory (pr:value) | delta vs prev | flag |";
      out "|---|---|---|---|---|";
      List.iter
        (fun (wname, metric, _, chart, delta, regression) ->
          out "| %s | %s | %s | %s | %s |" wname metric chart
            (match delta with Some d -> Printf.sprintf "%+.1f%%" d | None -> "-")
            (if regression then "REGRESSION"
             else match delta with Some _ -> "ok" | None -> "-"))
        traj_rows;
      match List.filter (fun (_, _, _, _, _, r) -> r) traj_rows with
      | [] -> ()
      | rs ->
          out "";
          out "%d gated metric(s) regressed > 10%% vs the previous PR." (List.length rs)
    end;
    out "";
    let md = Buffer.contents b in
    print_string md;
    let write path contents =
      let oc = open_out path in
      output_string oc contents;
      close_out oc
    in
    write "BENCH_REPORT.md" md;
    write "BENCH_REPORT.json"
      (Json.to_string
         (Json.Obj
            [
              ("merged_from", Json.Arr (List.map (fun (f, _) -> Json.Str f) reports));
              ( "trajectory",
                Json.Arr
                  (List.map
                     (fun (wname, metric, pts, _, delta, regression) ->
                       Json.Obj
                         [
                           ("workload", Json.Str wname);
                           ("metric", Json.Str metric);
                           ( "points",
                             Json.Arr
                               (List.map
                                  (fun (pr, v, _) ->
                                    Json.Obj
                                      [ ("pr", Json.Num pr); ("value", Json.Num v) ])
                                  pts) );
                           ( "delta_pct",
                             match delta with Some d -> Json.Num d | None -> Json.Null );
                           ("regression", Json.Bool regression);
                         ])
                     traj_rows) );
              ("reports", Json.Arr (List.map snd reports));
            ])
       ^ "\n");
    Fmt.pr "@.(written to BENCH_REPORT.md and BENCH_REPORT.json)@."
  end

(* ==================================================================== *)
(* Bechamel wall-clock suite: one Test.make per experiment driver        *)
(* ==================================================================== *)

let bechamel_suite () =
  header "wall-clock micro-benchmarks (Bechamel; ns per driver run)";
  let open Bechamel in
  let open Toolkit in
  let quick_graph n seed =
    let st = Gen.rng seed in
    Gen.random_connected st n
  in
  let g64 = quick_graph 64 6000 in
  let m64 = Marker.run g64 in
  let tests =
    [
      Test.make ~name:"T1:higham-liang-n64"
        (Staged.stage (fun () -> ignore (Ssmst_baselines.Higham_liang.run g64)));
      Test.make ~name:"T1:blin-n64" (Staged.stage (fun () -> ignore (Ssmst_baselines.Blin.run g64)));
      Test.make ~name:"T2:marker-fig1" (Staged.stage (fun () -> ignore (Marker.run (fig1_graph ()))));
      Test.make ~name:"F-CT:sync-mst-n64" (Staged.stage (fun () -> ignore (Sync_mst.run g64)));
      Test.make ~name:"F-CT:ghs-n64"
        (Staged.stage (fun () -> ignore (Ssmst_baselines.Ghs.run g64)));
      Test.make ~name:"F-MEM:kkp-mark-n64"
        (Staged.stage (fun () -> ignore (Ssmst_pls.Kkp_pls.mark m64)));
      Test.make ~name:"F-DT:verifier-100-rounds-n64"
        (Staged.stage (fun () ->
             let module C = struct
               let marker = m64
               let mode = Verifier.Passive
             end in
             let module P = Verifier.Make (C) in
             let module Net = Network.Make (P) in
             let net = Net.create g64 in
             Net.run net Scheduler.Sync ~rounds:100));
      Test.make ~name:"F-LB:hypertree-instance"
        (Staged.stage (fun () ->
             ignore (Lower_bound.measure ~seed:6001 ~h:4 ~tau:0 ~positive:false)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
              Instance.monotonic_clock raw
          in
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.pr "%-36s %14.0f ns/run@." (Test.Elt.name elt) est
          | _ -> Fmt.pr "%-36s (no estimate)@." (Test.Elt.name elt))
        (Test.elements test))
    tests

(* ==================================================================== *)

let all_experiments =
  [
    ("T1", table1);
    ("T2", table2);
    ("F-DT", fig_detection_time);
    ("F-ASY", fig_async_gap);
    ("F-DD", fig_detection_distance);
    ("F-CT", fig_construction_time);
    ("F-MEM", fig_memory);
    ("F-LB", fig_lower_bound);
    ("ENGINE", fig_engine);
    ("CAMPAIGN", fig_campaign);
    ("ABL", (fun () -> ablation_threshold (); ablation_window ()));
    ("OBS", fig_obs);
    ("REPLAY", fig_replay);
    ("PAR", fig_par);
    ("SCALE", fig_scale);
    ("DOMAINS", fig_domains);
    ("PROF", fig_prof);
    ("REPORT", fig_report);
    ("BENCH", bechamel_suite);
  ]

let () =
  let requested = Array.to_list Sys.argv |> List.tl in
  let to_run =
    if requested = [] then all_experiments
    else List.filter (fun (name, _) -> List.mem name requested) all_experiments
  in
  List.iter (fun (_, f) -> f ()) to_run;
  Fmt.pr "@.all experiments completed.@."
