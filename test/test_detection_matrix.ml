open Ssmst_graph
open Ssmst_sim
open Ssmst_core

(* Completeness matrix: each archetype of semantic corruption, applied at a
   node where it is live, must be detected.  Structural archetypes are
   caught by the 1-round checks; piece archetypes only by the train-borne
   comparisons. *)

let drive seed n mutate =
  let st = Gen.rng seed in
  let g = Gen.random_connected st n in
  let m = Marker.run g in
  let module C = struct
    let marker = m
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  Net.run net Scheduler.Sync ~rounds:(4 * Verifier.window_bound m.labels.(0));
  if Net.any_alarm net then `Pre_alarm
  else begin
    let mutated = ref false in
    for v = 0 to n - 1 do
      if not !mutated then
        match mutate g m v (Net.state net v) with
        | Some s' ->
            Net.set_state net v s';
            mutated := true
        | None -> ()
    done;
    if not !mutated then `No_target
    else
      match Net.detection_time net Scheduler.Sync ~max_rounds:100000 with
      | Some dt -> `Detected dt
      | None -> `Missed
  end

(* a live stored piece at node v, if any *)
let live_piece (m : Marker.t) v =
  List.find_map
    (fun (u, which, k, pc) -> if u = v then Some (which, k, pc) else None)
    (Marker.live_pieces m)

let mutate_piece f g m v (s : Verifier.state) =
  ignore g;
  match live_piece m v with
  | None -> None
  | Some (which, k, pc) ->
      let bump (pl : Partition.node_part_label) =
        let own = Array.copy pl.Partition.own in
        own.(k) <- f pc;
        { pl with Partition.own = own }
      in
      let label =
        match which with
        | `Top -> { s.Verifier.label with Marker.top = bump s.Verifier.label.Marker.top }
        | `Bottom -> { s.Verifier.label with Marker.bot = bump s.Verifier.label.Marker.bot }
      in
      Some { s with Verifier.label = label; cmp = Verifier.cmp_init; alarm = false }

let expect_detected name result =
  match result with
  | `Detected _ -> ()
  | `Pre_alarm -> Alcotest.failf "%s: alarm before corruption" name
  | `No_target -> Alcotest.failf "%s: no live target found" name
  | `Missed -> Alcotest.failf "%s: corruption not detected" name

let test_weight_increase () =
  expect_detected "weight+"
    (drive 3100 28
       (mutate_piece (fun pc ->
            { pc with Pieces.weight = { pc.Pieces.weight with Weight.base = pc.Pieces.weight.Weight.base + 3 } })))

let test_weight_decrease () =
  expect_detected "weight-"
    (drive 3101 28
       (mutate_piece (fun pc ->
            { pc with Pieces.weight = { pc.Pieces.weight with Weight.base = max 0 (pc.Pieces.weight.Weight.base - 3) } })))

let test_root_id_swap () =
  expect_detected "root-id"
    (drive 3102 28 (mutate_piece (fun pc -> { pc with Pieces.root_id = pc.Pieces.root_id + 7777 })))

let test_level_shift () =
  expect_detected "level"
    (drive 3103 28 (mutate_piece (fun pc -> { pc with Pieces.level = pc.Pieces.level + 1 })))

let test_endp_erasure () =
  (* erase a real endpoint marking: EPS1's count check fires in one round *)
  expect_detected "endp-erase"
    (drive 3104 28 (fun _ _ _ (s : Verifier.state) ->
         let l = s.Verifier.label in
         let strings = l.Marker.strings in
         let j =
           Array.to_list strings.Labels.endp
           |> List.mapi (fun j e -> (j, e))
           |> List.find_opt (fun (_, e) -> e = Labels.Up || e = Labels.Down)
         in
         match j with
         | None -> None
         | Some (j, _) ->
             let endp = Array.copy strings.Labels.endp in
             endp.(j) <- Labels.ENone;
             Some
               {
                 s with
                 Verifier.label =
                   { l with Marker.strings = { strings with Labels.endp } };
                 alarm = false;
               }))

let test_sp_depth_shift () =
  expect_detected "sp-depth"
    (drive 3105 28 (fun _ _ v (s : Verifier.state) ->
         if v <> 0 then None
         else
           Some
             {
               s with
               Verifier.label = { s.Verifier.label with Marker.sp_depth = s.Verifier.label.Marker.sp_depth + 5 };
               alarm = false;
             }))

let suite =
  [
    Alcotest.test_case "piece weight increased" `Quick test_weight_increase;
    Alcotest.test_case "piece weight decreased" `Quick test_weight_decrease;
    Alcotest.test_case "piece root identity swapped" `Quick test_root_id_swap;
    Alcotest.test_case "piece level shifted" `Quick test_level_shift;
    Alcotest.test_case "endpoint marking erased" `Quick test_endp_erasure;
    Alcotest.test_case "SP depth shifted" `Quick test_sp_depth_shift;
  ]
