(* Common-subplan sharing: per-node subtree hashes (stability, rebuild
   invalidation), the shared-prefix matcher (frontier, diamonds, WHILE
   protection, fusion barriers), graph surgery ([Subplan.cut] /
   [extract] byte identity), the shared store's subplan entries
   ([Engines.Share]: flight leases, the LRU byte budget, the one epoch
   table, and a model-based property; its scan entries are tested in
   the serve suite) and the served end-to-end behaviour: repeat
   traffic pays a shared prefix once per input epoch and stays
   byte-identical to one-shot runs, columnar on and off. *)

let lite_seed =
  match Sys.getenv_opt "MUSKETEER_TEST_SEED" with
  | Some s -> int_of_string s
  | None -> 2026

let cluster = Experiments.Common.ec2 16

(* one calibration per suite; each manager starts with an empty history *)
let calibrated = Musketeer.create ~cluster ()

let manager () =
  Musketeer.with_history calibrated (Musketeer.History.create ())

(* ---- fixtures (the serve suite's tiny key/value world) ---- *)

let kv_schema =
  Relation.Schema.make
    [ { Relation.Schema.name = "k"; ty = Relation.Value.Tint };
      { Relation.Schema.name = "v"; ty = Relation.Value.Tint } ]

let kv_table seed =
  Relation.Table.create kv_schema
    (List.init 120 (fun i ->
         [| Relation.Value.Int ((i + seed) mod 7);
            Relation.Value.Int (i * (seed + 3)) |]))

let fresh_hdfs () =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "r1" ~modeled_mb:64. (kv_table 1);
  Engines.Hdfs.put hdfs "r2" ~modeled_mb:48. (kv_table 2);
  hdfs

(* input -> select -> map -> group_by "out"; the map is the topmost
   sharable node (the group_by is a workflow output). *)
let agg_graph ?(threshold = 4) () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r1" in
  let s =
    Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int threshold) r
  in
  let m =
    Ir.Builder.map b ~target:"centered"
      ~expr:Relation.Expr.(col "v" - int 3)
      s
  in
  let g =
    Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
      ~aggs:
        [ Relation.Aggregate.make (Relation.Aggregate.Sum "centered")
            ~as_name:"v" ]
      m
  in
  Ir.Builder.finish b ~outputs:[ g ]

(* a diamond: one branch (select -> map) shared across instances, the
   other branch's predicate parameterised to break the match. *)
let diamond_graph ~other_pred () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r1" in
  let sa = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 4) r in
  let mb =
    Ir.Builder.map b ~target:"w" ~expr:Relation.Expr.(col "v" + int 1) sa
  in
  let sc = Ir.Builder.select b ~pred:other_pred r in
  let j =
    Ir.Builder.join b ~name:"out" ~left_key:"k" ~right_key:"k" mb sc
  in
  Ir.Builder.finish b ~outputs:[ j ]

(* input -> WHILE(body: state -> map state) -> map -> map "out" *)
let while_graph () =
  let body =
    let bb = Ir.Builder.create () in
    let st = Ir.Builder.input bb "state" in
    let m =
      Ir.Builder.map bb ~name:"state" ~target:"v"
        ~expr:Relation.Expr.(col "v" + int 1)
        st
    in
    Ir.Builder.finish_body bb ~carried:[ ("state", m) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "r1" in
  let w =
    Ir.Builder.while_ b
      ~condition:(Ir.Operator.Fixed_iterations 2)
      ~max_iterations:10 ~body [ init ]
  in
  let m1 =
    Ir.Builder.map b ~target:"w" ~expr:Relation.Expr.(col "v" + int 2) w
  in
  let m2 =
    Ir.Builder.map b ~name:"out" ~target:"u"
      ~expr:Relation.Expr.(col "v" * int 2)
      m1
  in
  Ir.Builder.finish b ~outputs:[ m2 ]

let find_id g pred =
  match
    List.find_opt (fun (n : Ir.Operator.node) -> pred n) g.Ir.Operator.nodes
  with
  | Some n -> n.Ir.Operator.id
  | None -> Alcotest.fail "expected node not found"

let is_select (n : Ir.Operator.node) =
  match n.kind with Ir.Operator.Select _ -> true | _ -> false

let is_map (n : Ir.Operator.node) =
  match n.kind with Ir.Operator.Map _ -> true | _ -> false

let is_input (n : Ir.Operator.node) =
  match n.kind with Ir.Operator.Input _ -> true | _ -> false

let sorted_csv outputs =
  List.sort compare
    (List.map (fun (name, t) -> (name, Relation.Table.to_csv t)) outputs)

let run_graph ~hdfs g =
  let m = manager () in
  match Musketeer.plan m ~workflow:"t" ~hdfs g with
  | None -> Alcotest.fail "graph should plan"
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ~record_history:false m ~workflow:"t" ~hdfs
        ~graph:g' plan
    with
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
    | Ok r -> sorted_csv r.Musketeer.Executor.outputs)

let config ?(concurrency = 4) ?(subresult_cache_mb = 0.) () =
  { Serve.Service.default_config with concurrency; subresult_cache_mb }

let sub ?(tenant = "t") ?(workflow = "agg") ~at graph =
  { Serve.Service.tenant; workflow; graph; arrival_s = at; slo_s = None }

(* ---- subtree hashes ---- *)

let test_node_hash_stable () =
  let a = agg_graph () and b = agg_graph () in
  Alcotest.(check string)
    "graph hashes agree"
    (Ir.Dag.canonical_hash a) (Ir.Dag.canonical_hash b);
  List.iter
    (fun (n : Ir.Operator.node) ->
      Alcotest.(check string)
        (Printf.sprintf "node %d hash agrees" n.id)
        (Ir.Dag.node_hash a n.id)
        (Ir.Dag.node_hash b n.id))
    a.Ir.Operator.nodes;
  (* a different constant in the select moves its hash and every
     consumer's, but not the untouched input below it *)
  let c = agg_graph ~threshold:5 () in
  let sel = find_id a is_select and inp = find_id a is_input in
  let map = find_id a is_map in
  Alcotest.(check string)
    "input hash unchanged"
    (Ir.Dag.node_hash a inp) (Ir.Dag.node_hash c inp);
  Alcotest.(check bool)
    "select hash moved" false
    (Ir.Dag.node_hash a sel = Ir.Dag.node_hash c sel);
  Alcotest.(check bool)
    "map hash moved (consumer of the select)" false
    (Ir.Dag.node_hash a map = Ir.Dag.node_hash c map)

(* satellite: "mutating" an operator (the only way is rebuilding the
   graph through [Musketeer.Rebuild]) must recompute the hashes of
   every consumer, even though the original graph's memo entry is warm,
   while untouched sibling branches keep their hashes. *)
let test_rebuild_invalidates_consumer_hashes () =
  let g = diamond_graph ~other_pred:Relation.Expr.(col "v" < int 2) () in
  (* warm the memo for [g] before rebuilding *)
  ignore (Ir.Dag.canonical_hash g);
  let inp = find_id g is_input in
  let sa =
    find_id g (fun n -> is_select n && n.inputs = [ inp ] && n.id < 3)
  in
  let mb = find_id g is_map in
  let sc = find_id g (fun n -> is_select n && n.id <> sa) in
  let h_sa = Ir.Dag.node_hash g sa
  and h_mb = Ir.Dag.node_hash g mb
  and h_sc = Ir.Dag.node_hash g sc
  and h_inp = Ir.Dag.node_hash g inp in
  (* rebuild with node [sa]'s operator replaced by a different select *)
  let b = Ir.Builder.create () in
  let handles = Hashtbl.create 8 in
  List.iter
    (fun (n : Ir.Operator.node) ->
      let ins = List.map (Hashtbl.find handles) n.inputs in
      let h =
        if n.id = sa then
          Ir.Builder.select b ~name:n.output
            ~pred:Relation.Expr.(col "v" > int 9)
            (List.hd ins)
        else Musketeer.Rebuild.copy_node b ~name:n.output n.kind ins
      in
      Hashtbl.add handles n.id h)
    g.Ir.Operator.nodes;
  let g' =
    Ir.Builder.finish b
      ~outputs:(List.map (Hashtbl.find handles) g.Ir.Operator.outputs)
  in
  Alcotest.(check bool)
    "mutated node's hash moved" false
    (Ir.Dag.node_hash g' sa = h_sa);
  Alcotest.(check bool)
    "consumer map's hash recomputed" false
    (Ir.Dag.node_hash g' mb = h_mb);
  Alcotest.(check string)
    "untouched sibling branch unchanged" h_sc
    (Ir.Dag.node_hash g' sc);
  Alcotest.(check string)
    "untouched input unchanged" h_inp
    (Ir.Dag.node_hash g' inp);
  Alcotest.(check bool)
    "graph hash moved" false
    (Ir.Dag.canonical_hash g' = Ir.Dag.canonical_hash g)

(* ---- the shared-prefix matcher ---- *)

let test_shared_prefixes_frontier () =
  let a = agg_graph () and b = agg_graph () in
  let map = find_id a is_map and sel = find_id a is_select in
  (* the select matches too, but its consumer (the map) also matches:
     the frontier reports only the deepest shared node *)
  Alcotest.(check bool) "select is sharable" true (Ir.Dag.sharable a sel);
  (match Ir.Dag.shared_prefixes a b with
  | [ (ia, ib, h) ] ->
    Alcotest.(check int) "frontier is the map (a)" map ia;
    Alcotest.(check int) "frontier is the map (b)" map ib;
    Alcotest.(check string)
      "reported hash is the subtree hash" (Ir.Dag.node_hash a map) h
  | l ->
    Alcotest.failf "expected exactly one shared prefix, got %d"
      (List.length l));
  (* workflow outputs never match: the group_by is excluded *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "output %d not sharable" id)
        false (Ir.Dag.sharable a id))
    a.Ir.Operator.outputs

let test_shared_prefixes_diamond () =
  let a = diamond_graph ~other_pred:Relation.Expr.(col "v" < int 2) () in
  let b = diamond_graph ~other_pred:Relation.Expr.(col "v" < int 3) () in
  let mb = find_id a is_map in
  match Ir.Dag.shared_prefixes a b with
  | [ (ia, ib, _) ] ->
    Alcotest.(check int) "only the matching branch's map (a)" mb ia;
    Alcotest.(check int) "only the matching branch's map (b)" mb ib
  | l ->
    Alcotest.failf
      "diamond with one differing branch: expected one shared prefix, \
       got %d"
      (List.length l)

let test_while_never_shared () =
  let g = while_graph () in
  List.iter
    (fun (n : Ir.Operator.node) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) not sharable" n.id
           (Ir.Operator.kind_name n.kind))
        false (Ir.Dag.sharable g n.id))
    g.Ir.Operator.nodes;
  Alcotest.(check int)
    "no shared prefixes even against itself" 0
    (List.length (Ir.Dag.shared_prefixes g (while_graph ())));
  Alcotest.(check int)
    "no cut candidates" 0
    (List.length (Musketeer.Subplan.candidates g))

let test_fusion_interiors_are_barriers () =
  let g = agg_graph () in
  let sel = find_id g is_select and map = find_id g is_map in
  let ids =
    List.map
      (fun c -> c.Musketeer.Subplan.sc_id)
      (Musketeer.Subplan.candidates g)
  in
  Alcotest.(check bool) "the select is a fusion-chain interior" true
    (match Ir.Fusion.role (Ir.Fusion.plan g) sel with
     | Ir.Fusion.Interior _ -> true
     | _ -> false);
  Alcotest.(check (list int))
    "the chain interior select is a barrier" [ map ] ids;
  let c = List.hd (Musketeer.Subplan.candidates g) in
  Alcotest.(check (list string))
    "candidate reads r1" [ "r1" ] c.Musketeer.Subplan.sc_inputs;
  Alcotest.(check int) "cone op count" 2 c.Musketeer.Subplan.sc_ops

(* ---- graph surgery ---- *)

let test_cut_rewrites_prefix () =
  let g = agg_graph () in
  let map = find_id g is_map in
  let rel = Musketeer.Subplan.relation ~hash:"deadbeef" in
  Alcotest.(check bool)
    "synthetic relation recognised" true
    (Musketeer.Subplan.is_subplan_relation rel);
  let g' = Musketeer.Subplan.cut g [ (map, rel) ] in
  Alcotest.(check (list string))
    "cut graph reads only the synthetic input" [ rel ]
    (Ir.Dag.input_relations g');
  Alcotest.(check (list string))
    "outputs unchanged" (Ir.Dag.output_relations g)
    (Ir.Dag.output_relations g');
  Alcotest.(check int)
    "select and map dropped with the cone" 2
    (List.length g'.Ir.Operator.nodes);
  Alcotest.(check bool)
    "empty cut list is identity" true (Musketeer.Subplan.cut g [] == g)

let test_cut_byte_identity () =
  let g = agg_graph () in
  let map = find_id g is_map in
  let hash = Ir.Dag.node_hash g map in
  let reference = run_graph ~hdfs:(fresh_hdfs ()) g in
  (* pay the prefix: extract it as a stand-alone workflow and run it *)
  let prefix = Musketeer.Subplan.extract g map in
  let prefix_rel = (Ir.Dag.node g map).Ir.Operator.output in
  Alcotest.(check (list string))
    "prefix outputs the cut node's relation" [ prefix_rel ]
    (Ir.Dag.output_relations prefix);
  let hdfs = fresh_hdfs () in
  ignore (run_graph ~hdfs prefix);
  if not (Engines.Hdfs.mem hdfs prefix_rel) then
    Alcotest.fail "prefix output not in HDFS";
  let table = Engines.Hdfs.table hdfs prefix_rel in
  (* attach: put the materialization under the synthetic input and run
     the cut suffix — outputs must be byte-identical to the full run *)
  let rel = Musketeer.Subplan.relation ~hash in
  let hdfs2 = fresh_hdfs () in
  Engines.Hdfs.put hdfs2 rel ~modeled_mb:1. table;
  let suffix = Musketeer.Subplan.cut g [ (map, rel) ] in
  Alcotest.(check (list (pair string string)))
    "cut suffix over materialized prefix = full run" reference
    (run_graph ~hdfs:hdfs2 suffix)

(* ---- the shared store: subplans within a lease ---- *)

module Share = Engines.Share

let test_subplan_share_window () =
  let t = Share.create () in
  let key = "fnv1a:abc" in
  let table = kv_table 1 in
  Alcotest.(check bool)
    "nothing to claim before publish" true
    (Share.find t ~key = None);
  Share.with_flight t (Share.begin_flight t) (fun () ->
      Share.publish t ~key ~inputs:[ "r1" ] ~mb:12. table);
  (* the payer's flight is still open: a co-admitted claim attaches *)
  (match Share.find t ~key with
  | Some (tbl, mb) ->
    Alcotest.(check bool) "same table" true (tbl == table);
    Alcotest.(check (float 1e-9)) "modeled MB" 12. mb
  | None -> Alcotest.fail "claim should attach while payer in flight");
  Alcotest.(check int) "paid once" 1 (Share.paid_count t ~key);
  (* hash-equal subtrees reading different INPUT epochs never match:
     a write to a transitively-read input drops the entry *)
  Share.note_write t "r1";
  Alcotest.(check bool)
    "claim refused after input epoch bump" true
    (Share.find t ~key = None)

let test_subplan_share_payer_expiry () =
  let t = Share.create () in
  let key = "fnv1a:def" in
  let f = Share.begin_flight t in
  Share.with_flight t f (fun () ->
      Share.publish t ~key ~inputs:[ "r1" ] ~mb:5. (kv_table 2));
  Share.end_flight t f;
  Alcotest.(check bool)
    "entries expire with the payer's flight" true
    (Share.find t ~key = None)

(* ---- the shared store: the byte budget ---- *)

(* publish [key] from a flight that then ends, so only the budget can
   keep it *)
let published t ~key ~inputs ~mb =
  let f = Share.begin_flight t in
  Share.with_flight t f (fun () ->
      Share.publish t ~key ~inputs ~mb (kv_table 1));
  Share.end_flight t f

let test_subresult_cache_lru () =
  let c = Share.create ~capacity_mb:100. () in
  published c ~key:"a" ~inputs:[ "r1" ] ~mb:40.;
  published c ~key:"b" ~inputs:[ "r1" ] ~mb:40.;
  (* touch "a" so "b" is the LRU entry when "c" needs room *)
  Alcotest.(check bool) "a cached" true (Share.find c ~key:"a" <> None);
  published c ~key:"c" ~inputs:[ "r1" ] ~mb:40.;
  Alcotest.(check bool)
    "LRU entry b evicted" true
    (Share.find c ~key:"b" = None);
  Alcotest.(check bool) "a survives" true (Share.find c ~key:"a" <> None);
  Alcotest.(check bool) "c cached" true (Share.find c ~key:"c" <> None);
  (* an entry bigger than the whole budget is refused *)
  published c ~key:"huge" ~inputs:[] ~mb:500.;
  Alcotest.(check bool)
    "over-capacity entry not cached" true
    (Share.find c ~key:"huge" = None);
  let s = Share.stats c in
  Alcotest.(check int) "one eviction" 1 s.Share.evictions;
  Alcotest.(check (float 1e-9)) "bytes within budget" 80. s.Share.bytes_mb

let test_subresult_cache_epochs () =
  let c = Share.create ~capacity_mb:100. () in
  Share.set_epoch c "r1" 3;
  published c ~key:"a" ~inputs:[ "r1" ] ~mb:10.;
  Alcotest.(check bool) "fresh epoch hits" true (Share.find c ~key:"a" <> None);
  Share.note_write c "r1";
  Alcotest.(check bool)
    "stale epoch dropped, never served" true
    (Share.find c ~key:"a" = None);
  Alcotest.(check bool) "dropped for good" true (Share.find c ~key:"a" = None);
  published c ~key:"b" ~inputs:[ "r2" ] ~mb:10.;
  Share.set_epoch c "r2" 5;
  Alcotest.(check bool)
    "invalidate by relation" true
    (Share.find c ~key:"b" = None);
  let s = Share.stats c in
  Alcotest.(check int) "two invalidations" 2 s.Share.invalidations;
  Alcotest.(check int) "budget emptied" 0 s.Share.entries

(* ---- the shared store: one epoch table ---- *)

(* input r1 -> map, written out as "r2" *)
let write_r2_graph () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r1" in
  let m =
    Ir.Builder.map b ~name:"r2" ~target:"v"
      ~expr:Relation.Expr.(col "v" + int 1)
      r
  in
  Ir.Builder.finish b ~outputs:[ m ]

(* An engine writing a relation under the store's scope bumps the one
   epoch table: the published subplan and the scan entry that read
   the relation both leave the store. *)
let test_engine_write_invalidates () =
  let store = Share.create ~capacity_mb:100. () in
  let f = Share.begin_flight store in
  Share.with_flight store f (fun () ->
      Share.publish store ~key:"p" ~inputs:[ "r2" ] ~mb:10. (kv_table 2);
      Alcotest.(check bool) "scan of r2 pays" false
        (Share.claim store ~relation:"r2" ~mb:48.));
  let e0 = Share.epoch store "r2" in
  let hdfs = fresh_hdfs () in
  let m = manager () in
  (match Musketeer.plan m ~workflow:"w" ~hdfs (write_r2_graph ()) with
   | None -> Alcotest.fail "graph should plan"
   | Some (plan, g) -> (
     match
       Musketeer.execute_plan ~record_history:false ~sharing:store m
         ~workflow:"w" ~hdfs ~graph:g plan
     with
     | Ok _ -> ()
     | Error e -> Alcotest.fail (Engines.Report.error_to_string e)));
  Alcotest.(check bool) "engine write bumps the epoch" true
    (Share.epoch store "r2" > e0);
  Alcotest.(check bool) "subplan that read r2 misses" true
    (Share.find store ~key:"p" = None);
  Share.with_flight store f (fun () ->
      Alcotest.(check bool) "scan entry dropped: the payer pays again"
        false
        (Share.claim store ~relation:"r2" ~mb:48.));
  Alcotest.(check int) "two paid reads" 2 (Share.paid_reads store "r2");
  Share.end_flight store f

(* A WHILE expanded on Hadoop rebinds its carried INPUT in the loop's
   own HDFS scope after every iteration. The rebinding is a write, so
   each iteration pays its read of the carried relation again rather
   than claiming the previous iteration's scan; the loop's result,
   written to the caller's HDFS, is a write too. *)
let test_loop_rebinding_invalidates () =
  let store = Share.create () in
  let hdfs = fresh_hdfs () in
  let bb = Ir.Builder.create () in
  let st = Ir.Builder.input bb "s" in
  let next =
    Ir.Builder.map bb ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) st
  in
  let body = Ir.Builder.finish_body bb ~carried:[ ("s", next) ] in
  let b = Ir.Builder.create () in
  let loop =
    Ir.Builder.while_ b ~name:"out" ~condition:(Ir.Operator.Fixed_iterations 3)
      ~max_iterations:4 ~body
      [ Ir.Builder.input b "r1" ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let m = manager () in
  (match
     Musketeer.plan m ~backends:[ Engines.Backend.Hadoop ] ~workflow:"w"
       ~hdfs g
   with
   | None -> Alcotest.fail "graph should plan"
   | Some (plan, g) -> (
     match
       Musketeer.execute_plan ~record_history:false ~sharing:store m
         ~workflow:"w" ~hdfs ~graph:g plan
     with
     | Ok _ -> ()
     | Error e -> Alcotest.fail (Engines.Report.error_to_string e)));
  Alcotest.(check int) "every iteration pays its read" 3
    (Share.paid_reads store "s");
  Alcotest.(check bool) "the result is a write" true
    (Share.epoch store "out" > 0)

(* Eviction takes an entry out of the budget only: while its flight
   leases it, it still attaches; when the lease ends, it is gone. *)
let test_eviction_keeps_leases () =
  let store = Share.create ~capacity_mb:50. () in
  let f = Share.begin_flight store in
  Share.with_flight store f (fun () ->
      Share.publish store ~key:"a" ~inputs:[ "r1" ] ~mb:40. (kv_table 1);
      Share.publish store ~key:"b" ~inputs:[ "r1" ] ~mb:40. (kv_table 1));
  Alcotest.(check int) "a evicted from the budget" 1
    (Share.stats store).Share.evictions;
  Alcotest.(check bool) "leased a still attaches" true
    (Share.find store ~key:"a" <> None);
  Alcotest.(check int) "as a share attach, not a cache hit" 0
    (Share.stats store).Share.hits;
  Share.end_flight store f;
  Alcotest.(check bool) "a leaves with its lease" true
    (Share.find store ~key:"a" = None);
  Alcotest.(check bool) "b stays in the budget" true
    (Share.find store ~key:"b" <> None);
  Alcotest.(check int) "b a cache hit" 1 (Share.stats store).Share.hits

(* ---- the shared store against a reference model ---- *)

(* A list-based model of the store's contract: entries keyed by scan
   relation or subplan key, each with the epochs it read, a lease and
   a budget flag; budget bytes are recomputed from the entries. *)
module Model = struct
  type key = Scan of string | Sub of string

  type entry = {
    key : key;
    reads : (string * int) list;
    mb : float;
    mutable lease : int option;
    mutable budgeted : bool;
    mutable last : int;
  }

  type t = {
    cap : float;
    mutable entries : entry list;
    mutable epochs : (string * int) list;
    mutable flights : int list;
    mutable next : int;
    mutable current : int;
    mutable tick : int;
    mutable paid : (key * int) list;
    mutable saved : float;
    mutable attached : float;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap =
    { cap; entries = []; epochs = []; flights = []; next = 0; current = -1;
      tick = 0; paid = []; saved = 0.; attached = 0.; hits = 0; misses = 0;
      evictions = 0 }

  let epoch m r = Option.value (List.assoc_opt r m.epochs) ~default:0
  let find m k = List.find_opt (fun e -> e.key = k) m.entries
  let remove m k = m.entries <- List.filter (fun e -> e.key <> k) m.entries
  let paid m k = Option.value (List.assoc_opt k m.paid) ~default:0

  let add m e =
    remove m e.key;
    m.entries <- e :: m.entries;
    m.paid <- (e.key, paid m e.key + 1) :: List.remove_assoc e.key m.paid

  let budget m = List.filter (fun e -> e.budgeted) m.entries
  let bytes m = List.fold_left (fun a e -> a +. e.mb) 0. (budget m)

  let begin_flight m =
    let id = m.next in
    m.next <- id + 1;
    m.flights <- id :: m.flights;
    id

  let end_flight m id =
    m.flights <- List.filter (( <> ) id) m.flights;
    List.iter (fun e -> if e.lease = Some id then e.lease <- None) m.entries;
    m.entries <- List.filter (fun e -> e.lease <> None || e.budgeted) m.entries

  let with_flight m id f =
    let prev = m.current in
    m.current <- id;
    Fun.protect ~finally:(fun () -> m.current <- prev) f

  let drop_readers m r =
    m.entries <-
      List.filter (fun e -> not (List.mem_assoc r e.reads)) m.entries

  let note_write m r =
    m.epochs <- (r, epoch m r + 1) :: List.remove_assoc r m.epochs;
    drop_readers m r

  let set_epoch m r e =
    if e > epoch m r then begin
      m.epochs <- (r, e) :: List.remove_assoc r m.epochs;
      drop_readers m r
    end

  let claim m r mb =
    match find m (Scan r) with
    | Some e when m.current >= 0 && e.lease = Some m.current -> true
    | Some _ ->
      m.saved <- m.saved +. mb;
      true
    | None ->
      add m { key = Scan r; reads = [ (r, epoch m r) ]; mb;
              lease = Some m.current; budgeted = false; last = 0 };
      false

  (* "share", "cache" or "miss" *)
  let find_sub m k =
    match find m (Sub k) with
    | Some e when e.lease <> None ->
      m.attached <- m.attached +. e.mb;
      "share"
    | Some e ->
      m.tick <- m.tick + 1;
      e.last <- m.tick;
      m.hits <- m.hits + 1;
      "cache"
    | None ->
      m.misses <- m.misses + 1;
      "miss"

  let publish m k inputs mb =
    remove m (Sub k);
    let budgeted = m.cap > 0. && mb <= m.cap in
    while budgeted && bytes m +. mb > m.cap do
      let lru =
        List.fold_left
          (fun a e -> if a.last <= e.last then a else e)
          (List.hd (budget m)) (budget m)
      in
      lru.budgeted <- false;
      if lru.lease = None then remove m lru.key;
      m.evictions <- m.evictions + 1
    done;
    m.tick <- m.tick + 1;
    add m { key = Sub k; reads = List.map (fun r -> (r, epoch m r)) inputs;
            mb; lease = Some m.current; budgeted; last = m.tick }
end

type store_op =
  | Begin
  | End of int  (* the i-th open flight, modulo *)
  | With of int * store_op list  (* under the i-th open flight, or a new one *)
  | Claim of int * float
  | Publish of int
  | Find of int
  | Write of int
  | Set_epoch of int * int

let relations = [| "r0"; "r1"; "r2" |]

(* subplan keys: fixed inputs and modeled MB, as a subtree hash fixes
   both *)
let subplans =
  [| ("k0", [ "r0" ], 10.); ("k1", [ "r1" ], 25.);
     ("k2", [ "r0"; "r1" ], 40.); ("k3", [ "r2" ], 70.) |]

let rec op_to_string = function
  | Begin -> "begin"
  | End i -> Printf.sprintf "end#%d" i
  | With (i, ops) ->
    Printf.sprintf "with#%d[%s]" i
      (String.concat "; " (List.map op_to_string ops))
  | Claim (r, mb) -> Printf.sprintf "claim %s %.0f" relations.(r) mb
  | Publish k -> "publish " ^ (let n, _, _ = subplans.(k) in n)
  | Find k -> "find " ^ (let n, _, _ = subplans.(k) in n)
  | Write r -> "write " ^ relations.(r)
  | Set_epoch (r, e) -> Printf.sprintf "set_epoch %s %d" relations.(r) e

let rec gen_op ~depth rng =
  let module R = Qcheck_lite.Rng in
  match R.int rng 20 with
  | 0 | 1 -> Begin
  | 2 | 3 | 19 -> End (R.int rng 4)
  | 4 | 5 | 6 when depth > 0 ->
    With (R.int rng 4,
          List.init (1 + R.int rng 4) (fun _ -> gen_op ~depth:(depth - 1) rng))
  | 7 | 8 | 9 -> Claim (R.int rng 3, R.pick rng [ 8.; 16.; 64. ])
  | 10 | 11 | 12 when depth > 0 && R.int rng 8 > 0 ->
    (* mostly from a flight, as the service publishes *)
    With (R.int rng 4, [ Publish (R.int rng 4) ])
  | 10 | 11 | 12 -> Publish (R.int rng 4)
  | 13 | 14 | 15 | 16 -> Find (R.int rng 4)
  | 17 -> Write (R.int rng 3)
  | _ -> Set_epoch (R.int rng 3, R.int rng 6)

let store_case_arbitrary =
  Qcheck_lite.make
    ~shrink:(fun (cap, ops) ->
        List.map (fun ops -> (cap, ops)) (Qcheck_lite.shrink_list ops))
    ~print:(fun (cap, ops) ->
        Printf.sprintf "capacity %.0f: %s" cap
          (Qcheck_lite.print_list op_to_string ops))
    (fun rng ->
       ( Qcheck_lite.Rng.pick rng [ 0.; 50.; 100. ],
         List.init (10 + Qcheck_lite.Rng.int rng 40) (fun _ ->
             gen_op ~depth:1 rng) ))

(* Everything observable after a step, printed alike for both sides *)
let observe ~result ~paid ~saved ~attached ~hits ~misses ~evictions
    ~entries ~bytes ~flights =
  Printf.sprintf
    "%s | paid %s | saved %.3f attached %.3f | hits %d misses %d \
     evictions %d entries %d bytes %.3f | flights %d"
    result (String.concat "," (List.map string_of_int paid)) saved attached
    hits misses evictions entries bytes flights

let run_store_case (cap, ops) =
  let st = Share.create ~capacity_mb:cap () and m = Model.create cap in
  let table = kv_table 1 in
  let rels = Array.to_list relations in
  let keys = Array.to_list (Array.map (fun (k, _, _) -> k) subplans) in
  let store_obs result =
    let s = Share.stats st in
    observe ~result
      ~paid:(List.map (Share.paid_reads st) rels
             @ List.map (fun key -> Share.paid_count st ~key) keys)
      ~saved:(Share.saved_mb st) ~attached:(Share.attached_mb st)
      ~hits:s.Share.hits ~misses:s.Share.misses ~evictions:s.Share.evictions
      ~entries:s.Share.entries ~bytes:s.Share.bytes_mb
      ~flights:(Share.open_flights st)
  and model_obs result =
    observe ~result
      ~paid:(List.map (fun r -> Model.paid m (Model.Scan r)) rels
             @ List.map (fun k -> Model.paid m (Model.Sub k)) keys)
      ~saved:m.Model.saved ~attached:m.Model.attached ~hits:m.Model.hits
      ~misses:m.Model.misses ~evictions:m.Model.evictions
      ~entries:(List.length (Model.budget m)) ~bytes:(Model.bytes m)
      ~flights:(List.length m.Model.flights)
  in
  (* open flight ids, oldest first; the model's ids are the store's *)
  let nth_open i =
    match List.rev m.Model.flights with
    | [] -> None
    | open_ -> Some (List.nth open_ (i mod List.length open_))
  in
  let rec step op =
    let got, want =
      match op with
      | Begin ->
        let a = Share.begin_flight st and b = Model.begin_flight m in
        (string_of_int a, string_of_int b)
      | End i ->
        Option.iter (fun id -> Share.end_flight st id; Model.end_flight m id)
          (nth_open i);
        ("", "")
      | With (i, ops) ->
        let id =
          match nth_open i with
          | Some id -> id
          | None -> ignore (Share.begin_flight st); Model.begin_flight m
        in
        Share.with_flight st id (fun () ->
            Model.with_flight m id (fun () -> List.iter step ops));
        ("", "")
      | Claim (r, mb) ->
        let rel = relations.(r) in
        (string_of_bool (Share.claim st ~relation:rel ~mb),
         string_of_bool (Model.claim m rel mb))
      | Publish k ->
        let key, inputs, mb = subplans.(k) in
        Share.publish st ~key ~inputs ~mb table;
        Model.publish m key inputs mb;
        ("", "")
      | Find k ->
        let key, _, _ = subplans.(k) in
        let hits0 = (Share.stats st).Share.hits in
        let got =
          match Share.find st ~key with
          | None -> "miss"
          | Some _ when (Share.stats st).Share.hits > hits0 -> "cache"
          | Some _ -> "share"
        in
        (got, Model.find_sub m key)
      | Write r ->
        Share.note_write st relations.(r);
        Model.note_write m relations.(r);
        ("", "")
      | Set_epoch (r, e) ->
        Share.set_epoch st relations.(r) e;
        Model.set_epoch m relations.(r) e;
        ("", "")
    in
    let got = store_obs got and want = model_obs want in
    if got <> want then
      failwith
        (Printf.sprintf "after %s:\n  store %s\n  model %s" (op_to_string op)
           got want)
  in
  List.iter step ops;
  true

let test_store_model () =
  Qcheck_lite.check ~count:300 ~seed:lite_seed
    ~name:"shared store = reference model" store_case_arbitrary
    run_store_case

(* ---- served end-to-end ---- *)

(* Sequential repeat traffic: the first submission pays the shared
   prefix, later ones attach through the sub-result cache; an input
   overwrite bumps the epoch and the next submission pays again. *)
let test_serve_pays_once_per_epoch () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let g = agg_graph () in
  let reference = run_graph ~hdfs:(fresh_hdfs ()) g in
  let service =
    Serve.Service.create
      ~config:(config ~subresult_cache_mb:256. ())
      m ~hdfs
  in
  let outcomes =
    Serve.Service.drive service
      [ sub ~at:0. g; sub ~at:10000. g; sub ~at:20000. g ]
  in
  (match outcomes with
  | [ o1; o2; o3 ] ->
    List.iter
      (fun (o : Serve.Service.outcome) ->
        Alcotest.(check (option string)) "no error" None o.error;
        Alcotest.(check (list (pair string string)))
          "byte-identical to one-shot" reference (sorted_csv o.outputs))
      [ o1; o2; o3 ];
    Alcotest.(check (pair int int))
      "first pays, no hit" (0, 1)
      (o1.subplan_hits, o1.subplan_paid);
    Alcotest.(check (pair int int))
      "second attaches from the cache" (1, 0)
      (o2.subplan_hits, o2.subplan_paid);
    Alcotest.(check (pair int int))
      "third attaches too" (1, 0)
      (o3.subplan_hits, o3.subplan_paid);
    Alcotest.(check bool)
      "attacher's makespan below payer's" true
      (o2.makespan_s < o1.makespan_s)
  | l -> Alcotest.failf "expected 3 outcomes, got %d" (List.length l));
  (* overwrite a transitively-read input: epoch bump forces a repay *)
  Serve.Service.put_input service "r1" ~modeled_mb:64. (kv_table 1);
  (match Serve.Service.drive service [ sub ~at:30000. g ] with
  | [ o4 ] ->
    Alcotest.(check (pair int int))
      "pays again after the input epoch bump" (0, 1)
      (o4.Serve.Service.subplan_hits, o4.Serve.Service.subplan_paid)
  | l -> Alcotest.failf "expected 1 outcome, got %d" (List.length l));
  let s = Share.stats (Serve.Service.store service) in
  Alcotest.(check bool)
    "cache holds the rematerialized prefix" true
    (s.Share.entries >= 1)

(* Co-admission: two overlapping submissions of hash-equal graphs
   share one materialization through the flight table. *)
let test_serve_co_admission_attaches () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let outcomes, _ =
    Serve.Service.run
      ~config:(config ~concurrency:2 ~subresult_cache_mb:256. ())
      m ~hdfs
      [ sub ~tenant:"a" ~at:0. (agg_graph ());
        sub ~tenant:"b" ~at:0. (agg_graph ()) ]
  in
  let paid =
    List.fold_left
      (fun acc (o : Serve.Service.outcome) -> acc + o.subplan_paid)
      0 outcomes
  and hits =
    List.fold_left
      (fun acc (o : Serve.Service.outcome) -> acc + o.subplan_hits)
      0 outcomes
  and attached =
    List.fold_left
      (fun acc (o : Serve.Service.outcome) -> acc +. o.subplan_attached_mb)
      0. outcomes
  in
  Alcotest.(check (pair int int))
    "one payer, one attacher" (1, 1) (paid, hits);
  Alcotest.(check bool) "attached MB recorded" true (attached > 0.)

let test_serve_sharing_off_by_default () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let outcomes, _ =
    Serve.Service.run ~config:(config ()) m ~hdfs
      [ sub ~at:0. (agg_graph ()); sub ~at:10000. (agg_graph ()) ]
  in
  List.iter
    (fun (o : Serve.Service.outcome) ->
      Alcotest.(check (pair int int))
        "subresult_cache_mb = 0 disables sharing" (0, 0)
        (o.subplan_hits, o.subplan_paid))
    outcomes

(* ---- properties ---- *)

(* With sharing on, served outputs stay byte-identical to one-shot
   runs for generated workflows, columnar on and off — the same gate
   the serve bench enforces fatally. *)
let test_sharing_identity_differential () =
  Qcheck_lite.check ~count:6 ~seed:lite_seed
    ~name:"shared-subplan outputs = one-shot outputs"
    Qcheck_lite.spec_arbitrary
    (fun spec ->
      let g = Qcheck_lite.graph_of_spec spec in
      List.for_all
        (fun columnar ->
          Relation.Column.with_enabled columnar @@ fun () ->
          let hdfs = Qcheck_lite.hdfs_of_spec spec in
          let base = Engines.Hdfs.snapshot hdfs in
          let reference =
            let m = manager () in
            match
              Musketeer.plan m ~workflow:"spec" ~hdfs:base g
            with
            | None -> Alcotest.fail "spec should plan"
            | Some (plan, g') -> (
              match
                Musketeer.execute_plan ~record_history:false m
                  ~workflow:"spec" ~hdfs:base ~graph:g' plan
              with
              | Error e ->
                Alcotest.fail (Engines.Report.error_to_string e)
              | Ok r -> sorted_csv r.Musketeer.Executor.outputs)
          in
          let m = manager () in
          let outcomes, _ =
            Serve.Service.run
              ~config:(config ~subresult_cache_mb:256. ())
              m ~hdfs
              [ sub ~tenant:"a" ~workflow:"spec" ~at:0. g;
                sub ~tenant:"b" ~workflow:"spec" ~at:0. g;
                sub ~tenant:"a" ~workflow:"spec" ~at:9000. g ]
          in
          List.for_all
            (fun (o : Serve.Service.outcome) ->
              o.error = None && sorted_csv o.outputs = reference)
            outcomes)
        [ true; false ])

let () =
  Alcotest.run "subplan"
    [ ("hashing",
       [ Alcotest.test_case "node hashes stable across builds" `Quick
           test_node_hash_stable;
         Alcotest.test_case "rebuild recomputes consumer hashes" `Quick
           test_rebuild_invalidates_consumer_hashes ]);
      ("matching",
       [ Alcotest.test_case "frontier reports the deepest match" `Quick
           test_shared_prefixes_frontier;
         Alcotest.test_case "diamond: only the matching branch" `Quick
           test_shared_prefixes_diamond;
         Alcotest.test_case "WHILE cones never shared" `Quick
           test_while_never_shared;
         Alcotest.test_case "fusion interiors are barriers" `Quick
           test_fusion_interiors_are_barriers ]);
      ("surgery",
       [ Alcotest.test_case "cut rewrites the prefix to an INPUT" `Quick
           test_cut_rewrites_prefix;
         Alcotest.test_case "cut suffix is byte-identical" `Quick
           test_cut_byte_identity ]);
      ("subplan_share",
       [ Alcotest.test_case "publish/claim within a flight window" `Quick
           test_subplan_share_window;
         Alcotest.test_case "payer expiry" `Quick
           test_subplan_share_payer_expiry ]);
      ("subresult_cache",
       [ Alcotest.test_case "LRU by bytes" `Quick test_subresult_cache_lru;
         Alcotest.test_case "epoch revalidation" `Quick
           test_subresult_cache_epochs ]);
      ("store",
       [ Alcotest.test_case "an engine write drops what read it" `Quick
           test_engine_write_invalidates;
         Alcotest.test_case "a loop's rebinding drops what read it" `Quick
           test_loop_rebinding_invalidates;
         Alcotest.test_case "eviction keeps leased entries" `Quick
           test_eviction_keeps_leases;
         Alcotest.test_case "matches the reference model" `Quick
           test_store_model ]);
      ("service",
       [ Alcotest.test_case "pays once per input epoch" `Quick
           test_serve_pays_once_per_epoch;
         Alcotest.test_case "co-admission attaches" `Quick
           test_serve_co_admission_attaches;
         Alcotest.test_case "off by default" `Quick
           test_serve_sharing_off_by_default ]);
      ("properties",
       [ Alcotest.test_case "shared = one-shot (columnar)" `Slow
           test_sharing_identity_differential ]) ]
