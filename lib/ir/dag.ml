type t = Operator.graph

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let node_opt (g : t) id =
  List.find_opt (fun (n : Operator.node) -> n.id = id) g.nodes

let node g id =
  match node_opt g id with
  | Some n -> n
  | None -> invalid "no node with id %d" id

(* [n] may take the name of the INPUT relation it replaces when every
   other node that reads that relation is an ancestor of [n]: no reader
   can see the new relation under the old name. Lists, not tables: each
   rebuild of a loop validates its body again, and bodies are small. *)
let replaces_input (g : t) (n : Operator.node) =
  let ancestors =
    List.fold_right
      (fun (m : Operator.node) acc ->
         if List.mem m.id acc then m.inputs @ acc else acc)
      g.nodes [ n.id ]
  in
  let scans_it i =
    match (node g i).kind with
    | Operator.Input { relation } -> relation = n.output
    | _ -> false
  in
  List.for_all
    (fun (c : Operator.node) ->
       List.mem c.id ancestors || not (List.exists scans_it c.inputs))
    g.nodes

let output_relations (g : t) =
  List.map (fun id -> (node g id).Operator.output) g.outputs

let input_relations (g : t) =
  List.filter_map
    (fun (n : Operator.node) ->
       match n.kind with
       | Operator.Input { relation } -> Some relation
       | _ -> None)
    g.nodes

let rec validate (g : t) =
  let seen = Hashtbl.create 16 in
  let names : (string, Operator.node) Hashtbl.t = Hashtbl.create 16 in
  let last_id = ref (-1) in
  List.iter
    (fun (n : Operator.node) ->
       if Hashtbl.mem seen n.id then invalid "duplicate node id %d" n.id;
       Hashtbl.add seen n.id ();
       if n.id <= !last_id then
         invalid "node ids not strictly increasing at %d" n.id;
       last_id := n.id;
       List.iter
         (fun i ->
            if i >= n.id then
              invalid "node %d depends on later/self node %d" n.id i;
            if not (Hashtbl.mem seen i) then
              invalid "node %d depends on unknown node %d" n.id i)
         n.inputs;
       (match Hashtbl.find_opt names n.output, n.kind with
        | None, _ | Some { kind = Operator.Input _; _ }, Operator.Input _ -> ()
        | Some { kind = Operator.Input _; _ }, _ when replaces_input g n -> ()
        | Some p, _ ->
          invalid "nodes %d and %d both produce relation %S" p.id n.id
            n.output);
       Hashtbl.replace names n.output n;
       (match Operator.expected_arity n.kind with
        | Some a when List.length n.inputs <> a ->
          invalid "node %d (%s) has %d inputs, expected %d" n.id
            (Operator.kind_name n.kind)
            (List.length n.inputs) a
        | Some _ | None -> ());
       match n.kind with
       | Operator.While { body; condition; max_iterations } ->
         if max_iterations <= 0 then
           invalid "node %d: WHILE max_iterations must be positive" n.id;
         validate body;
         if body.carried = [] then
           invalid "node %d: WHILE carries no relation" n.id;
         List.iter
           (fun (old, next) ->
              if not (List.mem old (input_relations body)) then
                invalid "node %d: carried relation %S is not a body input"
                  n.id old;
              if not (List.mem next (output_relations body)) then
                invalid "node %d: carried relation %S is not a body output"
                  n.id next)
           body.carried;
         (match condition with
          | Operator.Fixed_iterations k ->
            if k <= 0 then invalid "node %d: WHILE iteration bound %d" n.id k
          | Operator.Until_empty r | Operator.Until_fixpoint r ->
            if not (List.mem_assoc r body.carried) then
              invalid
                "node %d: WHILE condition relation %S is not loop-carried"
                n.id r)
       | _ -> ())
    g.nodes;
  List.iter
    (fun id ->
       if not (Hashtbl.mem seen id) then invalid "unknown output node %d" id)
    g.outputs

let rec operator_count (g : t) =
  List.fold_left
    (fun acc (n : Operator.node) ->
       match n.kind with
       | Operator.Input _ -> acc
       | Operator.While { body; _ } -> acc + 1 + operator_count body
       | _ -> acc + 1)
    0 g.nodes

let consumers (g : t) id =
  List.filter_map
    (fun (n : Operator.node) ->
       if List.mem id n.inputs then Some n.id else None)
    g.nodes

let sinks (g : t) =
  List.filter (fun (n : Operator.node) -> consumers g n.id = []) g.nodes

let sources (g : t) =
  List.filter
    (fun (n : Operator.node) ->
       match n.kind with Operator.Input _ -> true | _ -> false)
    g.nodes

(* Depth-first topological linearization, matching Figure 6: explore from
   each sink, emitting a node after all of its ancestors. Ids break ties,
   so the order is deterministic. *)
let topological_order (g : t) =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      let n = node g id in
      List.iter visit n.inputs;
      order := n :: !order
    end
  in
  List.iter (fun (n : Operator.node) -> visit n.id) g.nodes;
  List.rev !order

let topological_orders ?(limit = 64) (g : t) =
  (* Kahn's algorithm with backtracking over every choice of the next
     ready node; stops after [limit] complete orders. *)
  let ids = List.map (fun (n : Operator.node) -> n.id) g.nodes in
  let indeg = Hashtbl.create 16 in
  List.iter
    (fun (n : Operator.node) ->
       Hashtbl.replace indeg n.id (List.length n.inputs))
    g.nodes;
  let results = ref [] in
  let count = ref 0 in
  let rec go acc remaining =
    if !count >= limit then ()
    else if remaining = [] then begin
      incr count;
      results := List.rev acc :: !results
    end
    else
      let ready =
        List.filter (fun id -> Hashtbl.find indeg id = 0) remaining
      in
      List.iter
        (fun id ->
           if !count < limit then begin
             let n = node g id in
             List.iter
               (fun c ->
                  Hashtbl.replace indeg c (Hashtbl.find indeg c - 1))
               (consumers g id);
             go (n :: acc) (List.filter (fun x -> x <> id) remaining);
             List.iter
               (fun c ->
                  Hashtbl.replace indeg c (Hashtbl.find indeg c + 1))
               (consumers g id)
           end)
        ready
  in
  go [] ids;
  List.rev !results

let undirected_neighbours (g : t) id =
  let n = node g id in
  n.inputs @ consumers g id

let is_connected (g : t) ids =
  match ids with
  | [] -> true
  | first :: _ ->
    let in_set = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
    let visited = Hashtbl.create 8 in
    let rec visit id =
      if Hashtbl.mem in_set id && not (Hashtbl.mem visited id) then begin
        Hashtbl.add visited id ();
        List.iter visit (undirected_neighbours g id)
      end
    in
    visit first;
    Hashtbl.length visited = List.length ids

let convex (g : t) ids =
  (* A set is convex if no directed path leaves it and comes back. We
     check: for every node outside the set reachable from the set, none
     of its descendants are inside the set. *)
  let in_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
  (* reachable-from-set, passing only through outside nodes *)
  let tainted = Hashtbl.create 8 in
  List.iter
    (fun (n : Operator.node) ->
       let from_set =
         List.exists (fun i -> Hashtbl.mem in_set i) n.inputs
       and from_tainted =
         List.exists (fun i -> Hashtbl.mem tainted i) n.inputs
       in
       if
         (not (Hashtbl.mem in_set n.id))
         && (from_set || from_tainted)
       then Hashtbl.replace tainted n.id ())
    g.nodes;
  not
    (List.exists
       (fun (n : Operator.node) ->
          Hashtbl.mem in_set n.id
          && List.exists (fun i -> Hashtbl.mem tainted i) n.inputs)
       g.nodes)

let external_inputs (g : t) ids =
  let in_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
  let acc = ref [] in
  List.iter
    (fun id ->
       let n = node g id in
       match n.kind with
       | Operator.Input { relation } ->
         if not (List.mem relation !acc) then acc := relation :: !acc
       | _ ->
         List.iter
           (fun i ->
              if not (Hashtbl.mem in_set i) then begin
                let producer = node g i in
                if not (List.mem producer.output !acc) then
                  acc := producer.output :: !acc
              end)
           n.inputs)
    ids;
  List.rev !acc

let external_outputs (g : t) ids =
  let in_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
  List.filter
    (fun (n : Operator.node) ->
       Hashtbl.mem in_set n.id
       && (List.mem n.id g.outputs
           || List.exists
                (fun c -> not (Hashtbl.mem in_set c))
                (consumers g n.id)))
    g.nodes

let rec pp_graph indent ppf (g : t) =
  List.iter
    (fun (n : Operator.node) ->
       Format.fprintf ppf "%s[%d] %s -> %s%s@." indent n.id
         (Operator.describe n.kind)
         n.output
         (match n.inputs with
          | [] -> ""
          | inputs ->
            Printf.sprintf "  (from %s)"
              (String.concat ", " (List.map string_of_int inputs)));
       match n.kind with
       | Operator.While { body; _ } -> pp_graph (indent ^ "    ") ppf body
       | _ -> ())
    g.nodes

let pp ppf g = pp_graph "" ppf g

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let to_dot ?(name = "workflow") (g : t) =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let rec emit prefix (g : t) =
    List.iter
      (fun (n : Operator.node) ->
         let node_name = Printf.sprintf "%s%d" prefix n.id in
         line "  %s [label=\"%s\\n-> %s\"%s];" node_name
           (dot_escape (Operator.describe n.kind))
           (dot_escape n.output)
           (match n.kind with
            | Operator.Input _ -> " shape=box"
            | Operator.While _ -> " shape=diamond"
            | _ -> "");
         List.iter
           (fun i -> line "  %s%d -> %s;" prefix i node_name)
           n.inputs;
         match n.kind with
         | Operator.While { body; _ } ->
           line "  subgraph cluster_%s {" node_name;
           line "    label=\"%s body\";" (dot_escape n.output);
           emit (node_name ^ "_") body;
           line "  }";
           (match sources body with
            | first :: _ ->
              line "  %s -> %s_%d [style=dashed];" node_name node_name
                first.Operator.id
            | [] -> ())
         | _ -> ())
      g.nodes
  in
  line "digraph \"%s\" {" name;
  line "  rankdir=TB;";
  emit "n" g;
  Buffer.contents buf ^ "}\n"

(* FNV-1a 64-bit over a *structural* rendering: each node's hash folds
   in its operator description, output relation and the hashes of its
   input nodes (bottom-up — [validate] guarantees inputs have lower
   ids, so one forward pass suffices); the graph hash combines the
   sorted multiset of node hashes with the output-node set and the
   carried pairs. Raw node ids never enter the hash, so two DAGs that differ
   only in operator insertion order (and hence in id assignment) hash
   equal, while a duplicated subtree still differs from a shared one
   (the duplicate contributes its hash twice to the multiset). This is
   what the plan cache and the run ledger key on. *)
let fnv_seed = 0xcbf29ce484222325L

let fnv_feed h s =
  String.fold_left
    (fun h c ->
       Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    h s

let hex h = Printf.sprintf "%016Lx" h

(* Per-node subtree hashes: each node's hash folds in its operator
   description, output relation and its inputs' hashes, so it covers
   the node's entire input cone bottom-up ([validate] guarantees inputs
   have lower ids, so one forward pass suffices). *)
let rec subtree_hashes (g : Operator.graph) =
  let by_id = Hashtbl.create 32 in
  let node_hash (n : Operator.node) =
    let h = fnv_feed fnv_seed (Operator.describe n.Operator.kind) in
    let h = fnv_feed h "|" in
    let h = fnv_feed h n.Operator.output in
    let h = fnv_feed h "|" in
    let h =
      List.fold_left
        (fun h i -> fnv_feed (fnv_feed h (hex (Hashtbl.find by_id i))) ",")
        h n.Operator.inputs
    in
    match n.Operator.kind with
    | Operator.While { body; _ } ->
      fnv_feed (fnv_feed (fnv_feed h "{") (structural_hash body)) "}"
    | _ -> h
  in
  List.iter
    (fun (n : Operator.node) ->
       Hashtbl.replace by_id n.Operator.id (node_hash n))
    g.Operator.nodes;
  by_id

and structural_hash (g : Operator.graph) =
  let by_id = subtree_hashes g in
  let feed_sorted h items =
    List.fold_left
      (fun h s -> fnv_feed (fnv_feed h s) ";")
      h
      (List.sort String.compare items)
  in
  let h =
    feed_sorted fnv_seed
      (List.map
         (fun (n : Operator.node) -> hex (Hashtbl.find by_id n.Operator.id))
         g.Operator.nodes)
  in
  let h = fnv_feed h "|outs|" in
  let h =
    feed_sorted h (List.map (fun id -> hex (Hashtbl.find by_id id)) g.Operator.outputs)
  in
  let h = fnv_feed h "|carried|" in
  let h =
    feed_sorted h
      (List.map (fun (old, next) -> old ^ ">" ^ next) g.Operator.carried)
  in
  hex h

(* Hashes are recomputed on every ledger append, history record,
   plan-cache probe and subplan match, so memoize per DAG value — both
   the graph hash and the per-node subtree table. Keyed on physical
   identity: [Operator.graph] embeds UDF closures, which structural
   equality/hashing must never touch. Because the key is physical,
   "mutating" a node (always done by rebuilding the graph through
   {!Builder}/Rebuild) yields a fresh graph value and hence a fresh
   entry — child-dependent parent hashes are recomputed, never served
   stale. Bounded so long-lived services cycling through many DAGs
   don't leak. *)
type hash_entry = {
  he_graph : string;
  he_nodes : (int, int64) Hashtbl.t;
}

let hash_memo : (t * hash_entry) list ref = ref []
let hash_memo_capacity = 64

let hash_entry (g : t) =
  match List.find_opt (fun (k, _) -> k == g) !hash_memo with
  | Some (_, e) -> e
  | None ->
    let nodes = subtree_hashes g in
    let e = { he_graph = structural_hash g; he_nodes = nodes } in
    Obs.Metrics.incr Obs.Metrics.default "ir.canonical_hash.computed";
    let kept =
      if List.length !hash_memo >= hash_memo_capacity then
        List.filteri (fun i _ -> i < hash_memo_capacity - 1) !hash_memo
      else !hash_memo
    in
    hash_memo := (g, e) :: kept;
    e

let canonical_hash (g : t) = "fnv1a:" ^ (hash_entry g).he_graph

let node_hash (g : t) id =
  match Hashtbl.find_opt (hash_entry g).he_nodes id with
  | Some h -> "fnv1a:" ^ hex h
  | None -> invalid "no node with id %d" id

(* -------- common-subplan matching -------- *)

let cone (g : t) id =
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter visit (node g id).Operator.inputs
    end
  in
  visit id;
  List.filter_map
    (fun (n : Operator.node) ->
       if Hashtbl.mem seen n.id then Some n.id else None)
    g.nodes

(* A node is a sound subplan cut point when materializing its table and
   substituting an INPUT read cannot change any output or interact with
   name-addressed machinery:
   - never an INPUT (that is just a scan, shared as one) and never
     a workflow output (cutting there would rename an output relation);
   - it must have consumers (cutting a dead sink shares nothing);
   - its cone must not contain WHILE (loop expansion runs against a
     scope of its own), UDF or BLACK_BOX (their closures/side effects
     are invisible to the hash, so hash-equal cones could compute
     different bytes);
   - its cone must not read a carried INPUT: inside a loop body those
     are rebound every iteration, so a prefix reading them is never the
     same computation twice;
   - [barrier] lets callers exclude more nodes — the serving layer
     passes the fusion plan's chain interiors, whose tables fusion
     promises never to materialize. *)
let sharable ?(barrier = fun _ -> false) (g : t) id =
  let n = node g id in
  match n.Operator.kind with
  | Operator.Input _ -> false
  | _ ->
    (not (List.mem id g.outputs))
    && consumers g id <> []
    && (not (barrier id))
    && List.for_all
         (fun cid ->
            match (node g cid).Operator.kind with
            | Operator.While _ | Operator.Udf _ | Operator.Black_box _ ->
              false
            | Operator.Input { relation } ->
              not (List.mem_assoc relation g.carried)
            | _ -> true)
         (cone g id)

(* The matched frontier between two DAGs: pairs of nodes with equal
   subtree hashes, both eligible cut points, keeping only pairs not
   dominated by a deeper match (a matched node with a matched consumer
   is subsumed by it). Because a subtree hash folds the whole input
   cone bottom-up, hash equality is cone equality (modulo 64-bit FNV
   collisions — the sharing layers re-key on it, they never skip the
   byte-identity gates). *)
let shared_prefixes ?(barrier_a = fun _ -> false)
    ?(barrier_b = fun _ -> false) (a : t) (b : t) =
  let in_b = Hashtbl.create 16 in
  List.iter
    (fun (n : Operator.node) ->
       if sharable ~barrier:barrier_b b n.id then begin
         let h = node_hash b n.id in
         (* [nodes] is ascending, so the first registration is the
            smallest matching id — deterministic for duplicated
            subtrees *)
         if not (Hashtbl.mem in_b h) then Hashtbl.add in_b h n.id
       end)
    b.nodes;
  let matched = Hashtbl.create 16 in
  List.iter
    (fun (n : Operator.node) ->
       if sharable ~barrier:barrier_a a n.id
          && Hashtbl.mem in_b (node_hash a n.id)
       then Hashtbl.add matched n.id ())
    a.nodes;
  List.filter_map
    (fun (n : Operator.node) ->
       if Hashtbl.mem matched n.id
          && not
               (List.exists (fun c -> Hashtbl.mem matched c)
                  (consumers a n.id))
       then
         let h = node_hash a n.id in
         Some (n.id, Hashtbl.find in_b h, h)
       else None)
    a.nodes
