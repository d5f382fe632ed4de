open Ssmst_graph
open Ssmst_sim

(* The verifier instantiation of {!Campaign} (see the interface).  An
   [instance] caches the settled register snapshot so that a whole grid of
   (fault count x model) trials reuses one settling run; every trial then
   restores the snapshot into a fresh network, injects per the model and
   drives to the first alarm. *)

let family_names = [ "random"; "path"; "ring"; "grid"; "complete"; "star"; "hypertree" ]

let graph_of_family family st n =
  match family with
  | "random" -> Gen.random_connected st n
  | "path" -> Gen.path st n
  | "ring" -> Gen.ring st n
  | "grid" ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Gen.grid st side side
  | "complete" -> Gen.complete st n
  | "star" -> Gen.star st n
  | "hypertree" ->
      (* the §9 lower-bound family; n is rounded down to the nearest
         complete-binary-tree size 2^(h+1)-1 (h >= 2). *)
      let h = ref 2 in
      while (1 lsl (!h + 2)) - 1 <= n do incr h done;
      fst (Gen.hypertree_like st !h)
  | _ -> invalid_arg (Fmt.str "Verifier_campaign.graph_of_family: unknown family %S" family)

type instance = {
  graph : Graph.t;
  marker : Marker.t;
  settled : Verifier.state array;  (* registers after the settling run *)
}

let graph t = t.graph
let root t = Tree.root t.marker.Marker.tree

let prepare ?(domains = 1) ~family ~n ~seed () =
  let g = graph_of_family family (Gen.rng seed) n in
  let m = Ssmst_parallel.Probe.with_ "construct" (fun () -> Marker.run g) in
  let module C = struct
    let marker = m
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create ~domains g in
  Metrics.phase (Net.metrics net) "settle" (fun () ->
      Net.run net Scheduler.Sync ~rounds:(8 * Verifier.window_bound m.Marker.labels.(0)));
  { graph = g; marker = m; settled = Array.copy (Net.states net) }

let run_trial ?(domains = 1) t ~model ~inject_seed ~max_rounds =
  let module C = struct
    let marker = t.marker
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create ~domains t.graph in
  (* metrics/trace-neutral rewind: [set_state] would funnel n writes
     through the engine's write path, inflating [register_writes],
     stamping [last_write] on every node and emitting spurious Init
     events — [restore] installs the snapshot as pure bookkeeping *)
  Net.restore net t.settled;
  let rng = Gen.rng inject_seed in
  Campaign.drive ~rng ~model ~max_rounds
    ~round:(fun () -> Net.round net Scheduler.Sync)
    ~any_alarm:(fun () -> Net.any_alarm net)
    ~inject:(fun st m -> Net.inject net st m)
    ~distance:(fun ~faults -> Net.detection_distance net ~faults)

(* One instance's full (fault count x model) trial block, in grid order.
   The shard is self-contained — family, requested size and instance seed
   fully determine the settling run and every trial — which is exactly
   what makes it safe to farm out to a {!Ssmst_parallel.Pool} worker: the
   settling [prepare] (the expensive part) runs inside the shard and so
   parallelizes with its trials, and the rows come back as marshallable
   plain data. *)
let run_instance ~fault_counts ~models ~max_rounds (family, requested_n, instance_seed) =
  let inst = prepare ~family ~n:requested_n ~seed:instance_seed () in
  (* grid/hypertree round the requested size: record what was actually
     built, so downstream c·f·⌈log n⌉ analysis reads the right n *)
  let actual_n = Graph.n inst.graph in
  let r = root inst in
  let trials = ref [] in
  List.iteri
    (fun fi f ->
      List.iteri
        (fun mi name ->
          let model = Campaign.resolve_model name ~n:actual_n ~root:r ~count:f in
          let inject_seed = (instance_seed * 31) + (97 * fi) + mi + 1 in
          let outcome = run_trial inst ~model ~inject_seed ~max_rounds in
          let spec =
            {
              Campaign.family;
              n = actual_n;
              requested_n;
              faults = f;
              model = name;
              seed = instance_seed;
            }
          in
          trials := { Campaign.spec; outcome } :: !trials)
        models)
    fault_counts;
  List.rev !trials

let sweep ?(jobs = 1) ~families ~sizes ~fault_counts ~models ~seeds ~seed ~max_rounds () =
  (* the instance grid in deterministic (family, size, seed index) order;
     each instance is one pool shard, and reassembly in submission order
     makes the trial list — and every CSV/JSONL byte derived from it —
     identical for every [jobs] *)
  let instances =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun n -> List.init seeds (fun i -> (family, n, seed + (7919 * i))))
          sizes)
      families
  in
  Ssmst_parallel.Pool.map ~jobs (run_instance ~fault_counts ~models ~max_rounds) instances
  |> List.concat
