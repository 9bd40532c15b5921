(* Common-subplan sharing: per-node subtree hashes (stability, rebuild
   invalidation), the shared-prefix matcher (frontier, diamonds, WHILE
   protection, fusion barriers), graph surgery ([Subplan.cut] /
   [extract] byte identity), the co-admission flight table
   ([Engines.Subplan_share]), the bounded LRU sub-result cache
   ([Serve.Subresult_cache]) and the served end-to-end behaviour:
   repeat traffic pays a shared prefix once per input epoch and stays
   byte-identical to one-shot runs under fusion x columnar. *)

let lite_seed =
  match Sys.getenv_opt "MUSKETEER_TEST_SEED" with
  | Some s -> int_of_string s
  | None -> 2026

let cluster = Experiments.Common.ec2 16

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
    Ir.Builder.finish_body bb ~outputs:[ m ] ~loop_carried:[ "state" ]
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
  let m = Experiments.Common.musketeer_for cluster in
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
  let ids_off, ids_on =
    Fun.protect ~finally:(fun () -> Ir.Fusion.set_enabled None) @@ fun () ->
    Ir.Fusion.set_enabled (Some false);
    let off =
      List.map
        (fun c -> c.Musketeer.Subplan.sc_id)
        (Musketeer.Subplan.candidates g)
    in
    Ir.Fusion.set_enabled (Some true);
    let on =
      List.map
        (fun c -> c.Musketeer.Subplan.sc_id)
        (Musketeer.Subplan.candidates g)
    in
    (off, on)
  in
  Alcotest.(check (list int))
    "fusion off: map then select, topmost first" [ map; sel ] ids_off;
  Alcotest.(check (list int))
    "fusion on: the chain interior select is a barrier" [ map ] ids_on;
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

(* ---- the co-admission flight table ---- *)

let test_subplan_share_window () =
  let t = Engines.Subplan_share.create () in
  let key = "fnv1a:abc|fusion=false|columnar=false" in
  let table = kv_table 1 in
  Alcotest.(check bool)
    "nothing to claim before publish" true
    (Engines.Subplan_share.claim t ~key = None);
  Engines.Subplan_share.with_flight t
    (Engines.Subplan_share.begin_flight t)
    (fun () ->
      Engines.Subplan_share.publish t ~key ~inputs:[ "r1" ] ~mb:12. table);
  (* the payer's flight is still open: a co-admitted claim attaches *)
  (match Engines.Subplan_share.claim t ~key with
  | Some (tbl, mb) ->
    Alcotest.(check bool) "same table" true (tbl == table);
    Alcotest.(check (float 1e-9)) "modeled MB" 12. mb
  | None -> Alcotest.fail "claim should attach while payer in flight");
  Alcotest.(check int)
    "paid once" 1
    (Engines.Subplan_share.paid_count t ~key);
  (* hash-equal subtrees reading different INPUT epochs never match:
     a write to a transitively-read input drops the entry *)
  Engines.Subplan_share.note_write t "r1";
  Alcotest.(check bool)
    "claim refused after input epoch bump" true
    (Engines.Subplan_share.claim t ~key = None)

let test_subplan_share_payer_expiry () =
  let t = Engines.Subplan_share.create () in
  let key = "fnv1a:def|fusion=false|columnar=false" in
  let f = Engines.Subplan_share.begin_flight t in
  Engines.Subplan_share.with_flight t f (fun () ->
      Engines.Subplan_share.publish t ~key ~inputs:[ "r1" ] ~mb:5.
        (kv_table 2));
  Engines.Subplan_share.end_flight t f;
  Alcotest.(check bool)
    "entries expire with the payer's flight" true
    (Engines.Subplan_share.claim t ~key = None)

(* ---- the bounded sub-result cache ---- *)

let test_subresult_cache_lru () =
  let c = Serve.Subresult_cache.create ~capacity_mb:100. in
  let epoch _ = 0 in
  let t = kv_table 1 in
  Serve.Subresult_cache.insert c ~key:"a" ~inputs:[ ("r1", 0) ] ~mb:40. t;
  Serve.Subresult_cache.insert c ~key:"b" ~inputs:[ ("r1", 0) ] ~mb:40. t;
  (* touch "a" so "b" is the LRU entry when "c" needs room *)
  Alcotest.(check bool)
    "a cached" true
    (Serve.Subresult_cache.find c ~key:"a" ~epoch <> None);
  Serve.Subresult_cache.insert c ~key:"c" ~inputs:[ ("r1", 0) ] ~mb:40. t;
  Alcotest.(check bool)
    "LRU entry b evicted" true
    (Serve.Subresult_cache.find c ~key:"b" ~epoch = None);
  Alcotest.(check bool)
    "a survives" true
    (Serve.Subresult_cache.find c ~key:"a" ~epoch <> None);
  Alcotest.(check bool)
    "c cached" true
    (Serve.Subresult_cache.find c ~key:"c" ~epoch <> None);
  (* an entry bigger than the whole budget is refused *)
  Serve.Subresult_cache.insert c ~key:"huge" ~inputs:[] ~mb:500. t;
  Alcotest.(check bool)
    "over-capacity entry not cached" true
    (Serve.Subresult_cache.find c ~key:"huge" ~epoch = None);
  let s = Serve.Subresult_cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Serve.Subresult_cache.evictions;
  Alcotest.(check (float 1e-9))
    "bytes within budget" 80. s.Serve.Subresult_cache.bytes_mb

let test_subresult_cache_epochs () =
  let c = Serve.Subresult_cache.create ~capacity_mb:100. in
  let t = kv_table 1 in
  Serve.Subresult_cache.insert c ~key:"a" ~inputs:[ ("r1", 3) ] ~mb:10. t;
  Alcotest.(check bool)
    "fresh epoch hits" true
    (Serve.Subresult_cache.find c ~key:"a" ~epoch:(fun _ -> 3) <> None);
  Alcotest.(check bool)
    "stale epoch dropped, never served" true
    (Serve.Subresult_cache.find c ~key:"a" ~epoch:(fun _ -> 4) = None);
  Alcotest.(check bool)
    "dropped for good" true
    (Serve.Subresult_cache.find c ~key:"a" ~epoch:(fun _ -> 3) = None);
  Serve.Subresult_cache.insert c ~key:"b" ~inputs:[ ("r2", 0) ] ~mb:10. t;
  Serve.Subresult_cache.invalidate c ~relation:"r2";
  Alcotest.(check bool)
    "invalidate by relation" true
    (Serve.Subresult_cache.find c ~key:"b" ~epoch:(fun _ -> 0) = None);
  let s = Serve.Subresult_cache.stats c in
  Alcotest.(check int)
    "two invalidations" 2 s.Serve.Subresult_cache.invalidations

(* ---- served end-to-end ---- *)

(* Sequential repeat traffic: the first submission pays the shared
   prefix, later ones attach through the sub-result cache; an input
   overwrite bumps the epoch and the next submission pays again. *)
let test_serve_pays_once_per_epoch () =
  let hdfs = fresh_hdfs () in
  let m = Experiments.Common.musketeer_for cluster in
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
  let s = Serve.Subresult_cache.stats (Serve.Service.subresult_cache service) in
  Alcotest.(check bool)
    "cache holds the rematerialized prefix" true
    (s.Serve.Subresult_cache.entries >= 1)

(* Co-admission: two overlapping submissions of hash-equal graphs
   share one materialization through the flight table. *)
let test_serve_co_admission_attaches () =
  let hdfs = fresh_hdfs () in
  let m = Experiments.Common.musketeer_for cluster in
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
  let m = Experiments.Common.musketeer_for cluster in
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
   runs for generated workflows under fusion x columnar —
   the same gate the serve bench enforces fatally. *)
let test_sharing_identity_differential () =
  Qcheck_lite.check ~count:6 ~seed:lite_seed
    ~name:"shared-subplan outputs = one-shot outputs"
    Qcheck_lite.spec_arbitrary
    (fun spec ->
      let g = Qcheck_lite.graph_of_spec spec in
      List.for_all
        (fun fusion ->
          List.for_all
            (fun columnar ->
              Relation.Column.with_enabled columnar @@ fun () ->
              Ir.Fusion.set_enabled (Some fusion);
              Fun.protect
                ~finally:(fun () -> Ir.Fusion.set_enabled None)
              @@ fun () ->
              let hdfs = Qcheck_lite.hdfs_of_spec spec in
              let base = Engines.Hdfs.snapshot hdfs in
              let reference =
                let m = Experiments.Common.musketeer_for cluster in
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
              let m = Experiments.Common.musketeer_for cluster in
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
      ("service",
       [ Alcotest.test_case "pays once per input epoch" `Quick
           test_serve_pays_once_per_epoch;
         Alcotest.test_case "co-admission attaches" `Quick
           test_serve_co_admission_attaches;
         Alcotest.test_case "off by default" `Quick
           test_serve_sharing_off_by_default ]);
      ("properties",
       [ Alcotest.test_case
           "shared = one-shot (jobs x fusion x columnar)" `Slow
           test_sharing_identity_differential ]) ]
