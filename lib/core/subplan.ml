(* Common-subplan sharing (multi-query optimization, docs/serving.md):
   candidate cut points over a DAG's subtree hashes, the graph surgery
   that attaches a materialized prefix, and the prefix extraction the
   payer executes. The serving layer drives this; everything here is
   pure graph work. *)

let relation_prefix = "__subplan:"

(* Synthetic INPUT relation a cut prefix is read from, named by the
   subtree hash, which is also the prefix's share key. The table is put
   into the submission's own HDFS snapshot scope. *)
let relation ~hash = relation_prefix ^ hash

let is_subplan_relation r =
  String.length r >= String.length relation_prefix
  && String.sub r 0 (String.length relation_prefix) = relation_prefix

(* Pricing consistency: cutting at a fusion-chain interior would price
   as a written relation a table that merged pricing charges from a
   prior and never writes, so an attached run and a one-shot run would
   disagree. Tails and solos are priced from their measured bytes
   either way, so they are sound cut points. So is a JOIN head: it is
   priced as the solo JOIN, and a cut there leaves the rest of its
   chain merged from the cut. *)
let fusion_barrier g =
  let plan = Ir.Fusion.plan g in
  fun id ->
    match Ir.Fusion.role plan id with
    | Ir.Fusion.Interior _ -> true
    | Ir.Fusion.Solo | Ir.Fusion.Head _ | Ir.Fusion.Tail _ -> false

type candidate = {
  sc_id : int;
  sc_hash : string;  (* subtree hash of the cut node *)
  sc_inputs : string list;  (* INPUT relations the cone reads *)
  sc_ops : int;  (* operators in the cone (INPUTs excluded) *)
}

(* Eligible cut points of [g], topmost first (descending id is a
   reverse topological order, so the largest shareable prefix is
   probed before any of its sub-prefixes). *)
let candidates (g : Ir.Dag.t) =
  let barrier = fusion_barrier g in
  List.filter_map
    (fun (n : Ir.Operator.node) ->
       if Ir.Dag.sharable ~barrier g n.id then begin
         let cone = Ir.Dag.cone g n.id in
         let hash = Ir.Dag.node_hash g n.id in
         let ops =
           List.length
             (List.filter
                (fun id ->
                   match (Ir.Dag.node g id).Ir.Operator.kind with
                   | Ir.Operator.Input _ -> false
                   | _ -> true)
                cone)
         in
         Some
           {
             sc_id = n.id;
             sc_hash = hash;
             sc_inputs = Ir.Dag.external_inputs g cone;
             sc_ops = ops;
           }
       end
       else None)
    g.Ir.Operator.nodes
  |> List.sort (fun a b -> compare b.sc_id a.sc_id)

(* The prefix graph the payer executes: the cut node's input cone as a
   stand-alone workflow (the cone is convex by construction, so
   Jobgraph's extraction applies directly). Its outputs include the
   cut node itself. *)
let extract (g : Ir.Dag.t) id = Jobgraph.extract g (Ir.Dag.cone g id)

(* [cut g cuts] — replace each cut node by an INPUT reading its
   materialized relation and drop cone nodes nothing else needs. The
   suffix is rebuilt through Rebuild.rewrite, so it revalidates and
   gets fresh contiguous ids; its canonical hash is deterministic (the synthetic
   relation name embeds the subtree hash), so the plan cache works for
   rewritten suffixes exactly as for full graphs. *)
let cut (g : Ir.Dag.t) (cuts : (int * string) list) =
  if cuts = [] then g
  else begin
    let cutmap = Hashtbl.create 4 in
    List.iter (fun (id, rel) -> Hashtbl.replace cutmap id rel) cuts;
    (* nodes still needed: reachable from an output without crossing a
       cut node *)
    let needed = Hashtbl.create 16 in
    let rec need id =
      if not (Hashtbl.mem needed id) then begin
        Hashtbl.add needed id ();
        if not (Hashtbl.mem cutmap id) then
          List.iter need (Ir.Dag.node g id).Ir.Operator.inputs
      end
    in
    List.iter need g.Ir.Operator.outputs;
    Rebuild.rewrite g ~decide:(fun (n : Ir.Operator.node) ->
        if not (Hashtbl.mem needed n.id) then Rebuild.Skip
        else
          match Hashtbl.find_opt cutmap n.id with
          | Some rel -> Rebuild.Replace (fun b _ -> Ir.Builder.input b rel)
          | None -> Rebuild.Keep)
  end
