open Ssmst_graph

(* The end-to-end marker M (Corollary 6.11): run SYNC_MST, derive the
   Section 5 strings, the two partitions, and the placement of pieces, and
   assemble each node's complete label.  Construction time is O(n)
   (Theorem 4.4 for the construction itself; Section 6.3's Multi_Wave
   implementation for the partitions and the train initialization), and
   every label is O(log n) bits. *)

type node_label = {
  comp_port : int option;  (* the component: port towards the parent *)
  sp_root : int;  (* Example SP: identity of the root of T *)
  sp_depth : int;  (* Example SP: tree depth *)
  nk_n : int;  (* Example NumK: claimed number of nodes *)
  nk_sub : int;  (* Example NumK: subtree size *)
  strings : Labels.t;  (* Roots / EndP / Parents / cnt *)
  top : Partition.node_part_label;
  bot : Partition.node_part_label;
  delim : int;  (* lowest top level *)
}

type t = {
  graph : Graph.t;
  tree : Tree.t;
  hierarchy : Fragment.hierarchy;
  assignment : Partition.assignment;
  labels : node_label array;
  construction_rounds : int;  (* ideal time of the distributed marker *)
  label_bits : int;  (* max label size over the nodes *)
}

let label_bits (l : node_label) =
  let part_bits (p : Partition.node_part_label) =
    Ssmst_sim.Memory.of_int p.part_root_id
    + Ssmst_sim.Memory.of_nat p.dfs_rank
    + Ssmst_sim.Memory.of_nat p.subtree
    + Ssmst_sim.Memory.of_nat p.k
    + Ssmst_sim.Memory.of_nat p.depth_in_part
    + Ssmst_sim.Memory.of_nat p.dbound
    + Ssmst_sim.Memory.of_array Pieces.bits p.own
  in
  Ssmst_sim.Memory.of_option Ssmst_sim.Memory.of_nat l.comp_port
  + Ssmst_sim.Memory.of_int l.sp_root
  + Ssmst_sim.Memory.of_nat l.sp_depth
  + Ssmst_sim.Memory.of_nat l.nk_n
  + Ssmst_sim.Memory.of_nat l.nk_sub
  + Labels.bits l.strings
  + part_bits l.top + part_bits l.bot
  + Ssmst_sim.Memory.of_nat l.delim

(* Round cost of the Multi_Wave-based partition construction and train
   initialization (Sections 6.3.1-6.3.8): six multi-wave passes (identify
   red / blue / large fragments, Procedure Merge, the Top split, the Bottom
   notification, and the two piece distributions), each O(n) by
   Observation 6.8, plus O(n) for the per-part DFS placements. *)
let partition_rounds (h : Fragment.hierarchy) =
  let one_pass = (Multi_wave.run h ~command:(fun f _ -> Fragment.size f)).Multi_wave.rounds in
  (6 * one_pass) + (2 * Tree.n h.tree)

(* Assemble the node labels for a given hierarchy (over its own tree and
   graph).  Shared by the honest marker and by [forge]. *)
let of_hierarchy ?(construction_rounds = 0) ?threshold (h : Fragment.hierarchy) =
  let tree = h.tree in
  let g = Tree.graph tree in
  let strings = Labels.of_hierarchy h in
  let a = Partition.compute ?threshold h in
  let sizes = Tree.subtree_sizes tree in
  let n = Graph.n g in
  let labels =
    Array.init n (fun v ->
        {
          comp_port =
            (match Tree.parent tree v with
            | None -> None
            | Some p -> Some (Graph.port_to g v p));
          sp_root = Graph.id g (Tree.root tree);
          sp_depth = Tree.depth tree v;
          nk_n = n;
          nk_sub = sizes.(v);
          strings = strings.(v);
          top = a.top_label.(v);
          bot = a.bot_label.(v);
          delim = a.delim.(v);
        })
  in
  let label_bits = Array.fold_left (fun acc l -> max acc (label_bits l)) 0 labels in
  { graph = g; tree; hierarchy = h; assignment = a; labels; construction_rounds; label_bits }

let run ?threshold (g : Graph.t) =
  let r = Sync_mst.run g in
  (* the Multi_Wave partition construction + train initialization, charged
     its rounds and the final label high-water *)
  Ssmst_parallel.Probe.with_ "marker-assembly" @@ fun () ->
  let pr = partition_rounds r.hierarchy in
  let m = of_hierarchy ~construction_rounds:(r.rounds + pr) ?threshold r.hierarchy in
  Ssmst_parallel.Probe.charge ~rounds:pr ~peak_bits:m.label_bits ();
  m

(* The strongest-adversary pipeline for tests and lower-bound experiments:
   given an arbitrary spanning tree [bad] of [g], produce the labels an
   honest marker would compute *if that tree were the MST*: the fragment
   hierarchy is grown over [bad]'s edges, but all pieces carry the real ω′
   weights of [g].  Every purely structural check passes; only the
   minimality checks C1/C2 can (and must, by Lemma 8.4) expose a non-MST. *)
let forge (g : Graph.t) (bad : Tree.t) =
  let n = Graph.n g in
  let ids = Array.init n (Graph.id g) in
  (* keep the real weights on the claimed tree and push every other edge
     above them: SYNC_MST then grows the claimed tree with the best
     consistent candidates (the real-weight minimum outgoing *tree* edges),
     so rejection can only come from a genuine minimality violation —
     forging the true MST is accepted *)
  let heavy = 1 + Graph.fold_edges (fun acc _ _ w -> max acc w) 0 g in
  let edges' =
    List.map
      (fun (u, v, w) -> (u, v, if Tree.is_tree_edge bad u v then w else w + heavy))
      (Graph.edges g)
  in
  let g' = Graph.of_edges ~ids ~n edges' in
  let r = Sync_mst.run g' in
  (* transplant the structure onto the real graph *)
  let parents =
    Array.init n (fun v -> match Tree.parent r.tree v with None -> -1 | Some p -> p)
  in
  let tree_g = Tree.of_parents g parents in
  let records =
    Array.to_list r.hierarchy.frags
    |> List.map (fun (f : Fragment.t) -> (f.level, f.root, Array.to_list f.members, f.candidate))
  in
  of_hierarchy (Fragment.build tree_g records)

(* The components array the marker leaves in the network. *)
let components (m : t) = Tree.to_components m.tree

(* Hook for Wave_echo-based cost sanity: the marker's cost must stay linear. *)
let linear_bound (m : t) = m.construction_rounds <= 80 * Graph.n m.graph + 200

(* Every live stored piece: one whose fragment intersects the part
   carrying it.  A dead-cargo piece (an ancestor of a split part's red seed
   that misses the part entirely) is semantically null: corrupting it is
   correctly ignored by the verifier.  Pieces name their fragment by
   (level, root identity); the first such fragment in the hierarchy is
   taken. *)
let live_pieces (m : t) =
  let g = m.graph in
  let frags = Hashtbl.create 64 in
  Array.iter
    (fun (f : Fragment.t) ->
      let key = (f.level, Graph.id g f.root) in
      if not (Hashtbl.mem frags key) then Hashtbl.add frags key f)
    m.hierarchy.frags;
  let acc = ref [] in
  Array.iteri
    (fun v (l : node_label) ->
      let consider which (pl : Partition.node_part_label) part_ix =
        let part = m.assignment.parts.(part_ix) in
        Array.iteri
          (fun k (pc : Pieces.t) ->
            match Hashtbl.find_opt frags (pc.level, pc.root_id) with
            | Some f when List.exists (Fragment.mem f) part.members ->
                acc := (v, which, k, pc) :: !acc
            | Some _ | None -> ())
          pl.own
      in
      consider `Top l.top m.assignment.top_of.(v);
      consider `Bottom l.bot m.assignment.bot_of.(v))
    m.labels;
  List.rev !acc
