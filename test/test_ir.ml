(* Tests for the IR: DAG construction and validation, topological
   orders, connectivity/convexity, schema inference, size bounds, and
   the reference interpreter (including WHILE loops). *)

open Relation

let schema_kv =
  Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                { Schema.name = "v"; ty = Value.Tint } ]

let table_kv rows =
  Table.create schema_kv
    (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)

let catalog_of assoc name =
  match List.assoc_opt name assoc with
  | Some s -> s
  | None -> raise Not_found

(* a small linear workflow: input -> select -> group_by *)
let linear_graph () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "purchases" in
  let sel = Ir.Builder.select b ~pred:Expr.(col "v" > int 10) inp in
  let grp =
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"total" ]
      sel
  in
  Ir.Builder.finish b ~outputs:[ grp ]

(* diamond: input splits into two branches that re-join *)
let diamond_graph () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let l = Ir.Builder.select b ~pred:Expr.(col "v" > int 0) inp in
  let r = Ir.Builder.select b ~pred:Expr.(col "v" < int 100) inp in
  let u = Ir.Builder.union b l r in
  (Ir.Builder.finish b ~outputs:[ u ],
   (Ir.Builder.id inp, Ir.Builder.id l, Ir.Builder.id r, Ir.Builder.id u))

(* ---------------- Builder & validation ---------------- *)

let test_builder_linear () =
  let g = linear_graph () in
  Alcotest.(check int) "ops (inputs not counted)" 2 (Ir.Dag.operator_count g);
  Alcotest.(check int) "nodes" 3 (List.length g.Ir.Operator.nodes);
  Alcotest.(check (list string)) "outputs" [ "tmp2" ]
    (Ir.Dag.output_relations g)

let test_validate_rejects_bad_arity () =
  let bad =
    { Ir.Operator.nodes =
        [ { Ir.Operator.id = 0;
            kind = Ir.Operator.Input { relation = "r" }; inputs = [];
            output = "r" };
          { Ir.Operator.id = 1; kind = Ir.Operator.Union; inputs = [ 0 ];
            output = "u" } ];
      outputs = [ 1 ]; carried = [] }
  in
  (try Ir.Dag.validate bad; Alcotest.fail "expected Invalid"
   with Ir.Dag.Invalid _ -> ())

let test_validate_rejects_forward_edge () =
  let bad =
    { Ir.Operator.nodes =
        [ { Ir.Operator.id = 0; kind = Ir.Operator.Distinct; inputs = [ 1 ];
            output = "d" };
          { Ir.Operator.id = 1;
            kind = Ir.Operator.Input { relation = "r" }; inputs = [];
            output = "r" } ];
      outputs = [ 0 ]; carried = [] }
  in
  (try Ir.Dag.validate bad; Alcotest.fail "expected Invalid"
   with Ir.Dag.Invalid _ -> ())

(* a WHILE takes one input per body INPUT node and carries at least
   one pair; the builder rejects any other WHILE before it can run *)
let test_validate_rejects_bad_while () =
  let body_b = Ir.Builder.create () in
  let s = Ir.Builder.input body_b "s" in
  let e = Ir.Builder.input body_b "e" in
  let next = Ir.Builder.union body_b ~name:"s" s e in
  let body = Ir.Builder.finish_body body_b ~carried:[ ("s", next) ] in
  let loop ?(body = body) inputs =
    let b = Ir.Builder.create () in
    let w =
      Ir.Builder.while_ b ~condition:(Ir.Operator.Fixed_iterations 2)
        ~max_iterations:3 ~body
        (List.map (Ir.Builder.input b) inputs)
    in
    Ir.Builder.finish b ~outputs:[ w ]
  in
  let rejected what ?body inputs =
    match loop ?body inputs with
    | _ -> Alcotest.failf "%s: expected Invalid" what
    | exception Ir.Dag.Invalid _ -> ()
  in
  ignore (loop [ "s0"; "e0" ]);
  rejected "one input for two body INPUTs" [ "s0" ];
  rejected "three inputs for two body INPUTs" [ "s0"; "e0"; "x0" ];
  let uncarried =
    let b = Ir.Builder.create () in
    ignore (Ir.Builder.input b "s");
    Ir.Builder.finish_body b ~carried:[]
  in
  rejected "a body carrying nothing" ~body:uncarried [ "s0" ]

(* one relation, one name: within one graph (a WHILE body is a scope of
   its own) a name belongs to one node, except where a node replaces an
   INPUT after its last read *)
let names g =
  List.map (fun (n : Ir.Operator.node) -> n.output) g.Ir.Operator.nodes

(* [g] with node [id]'s output named [name], past the builder *)
let renamed (g : Ir.Operator.graph) id name =
  { g with
    nodes =
      List.map
        (fun (n : Ir.Operator.node) ->
           if n.id = id then { n with output = name } else n)
        g.nodes }

(* [Dag.validate] rejects two relations under one name; [Builder]
   renames every holder but the one the rule lets keep it *)
let test_unique_names () =
  let invalid what g =
    match Ir.Dag.validate g with
    | () -> Alcotest.failf "%s: expected Invalid" what
    | exception Ir.Dag.Invalid _ -> ()
  in
  (* a name given twice: the last holder keeps it *)
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let x = Ir.Builder.select b ~name:"x" ~pred:Expr.(col "v" > int 0) r in
  let g = Ir.Builder.finish b ~outputs:[ Ir.Builder.distinct b ~name:"x" x ] in
  Alcotest.(check (list string)) "superseded" [ "r"; "x_1"; "x" ] (names g);
  invalid "two nodes, one name" (renamed g 1 "x");
  (* an INPUT replaced before a later read *)
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let r' = Ir.Builder.distinct b ~name:"r" r in
  let late = Ir.Builder.select b ~pred:Expr.(col "v" > int 0) r in
  let g = Ir.Builder.finish b ~outputs:[ Ir.Builder.union b r' late ] in
  Alcotest.(check (list string)) "read after"
    [ "r"; "r_1"; "tmp2"; "tmp3" ] (names g);
  invalid "an INPUT replaced before a later read" (renamed g 1 "r");
  (* an INPUT replaced beside a reader it does not follow *)
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 0) r in
  let r' = Ir.Builder.distinct b ~name:"r" (Ir.Builder.input b "q") in
  let g = Ir.Builder.finish b ~outputs:[ s; r' ] in
  Alcotest.(check (list string)) "beside" [ "r"; "tmp1"; "q"; "r_1" ]
    (names g);
  invalid "an INPUT replaced beside a reader it does not follow"
    (renamed g 3 "r");
  (* every read of [r] precedes the node that replaces it *)
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~name:"s" ~pred:Expr.(col "v" > int 0) r in
  let g = Ir.Builder.finish b ~outputs:[ Ir.Builder.union b ~name:"r" s r ] in
  Alcotest.(check (list string)) "in-place update" [ "r"; "s"; "r" ] (names g);
  (* two scans of one relation are one relation *)
  let b = Ir.Builder.create () in
  let u =
    Ir.Builder.union b (Ir.Builder.input b "r") (Ir.Builder.input b "r")
  in
  Alcotest.(check (list string)) "two scans" [ "r"; "r"; "tmp2" ]
    (names (Ir.Builder.finish b ~outputs:[ u ]))

(* a minted name that a given one also uses is renamed; a build with no
   collision keeps its names *)
let test_fresh_names () =
  let build ~given =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r" in
    let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 0) r in
    let o = Ir.Builder.distinct b ~name:given s in
    Ir.Builder.finish b ~outputs:[ o ]
  in
  Alcotest.(check (list string)) "no collision" [ "r"; "tmp1"; "out" ]
    (names (build ~given:"out"));
  Alcotest.(check (list string)) "minted name renamed"
    [ "r"; "tmp1_1"; "tmp1" ] (names (build ~given:"tmp1"));
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 0) r in
  let t = Ir.Builder.distinct b ~name:"tmp1_1" s in
  let u = Ir.Builder.union b ~name:"tmp1" s t in
  Alcotest.(check (list string)) "skips taken suffixes"
    [ "r"; "tmp1_2"; "tmp1_1"; "tmp1" ]
    (names (Ir.Builder.finish b ~outputs:[ u ]))

(* k-means updates [centroids] in place: the WHILE replaces the
   workflow INPUT it alone reads, while its body names the new
   centroids apart and pairs them with the INPUT *)
let test_kmeans_in_place () =
  let g = Workloads.Workflows.kmeans ~iterations:2 () in
  let loop =
    List.find
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.While _ -> true | _ -> false)
      g.Ir.Operator.nodes
  in
  Alcotest.(check string) "WHILE result" "centroids" loop.output;
  (match loop.kind with
   | Ir.Operator.While { body; _ } ->
     Alcotest.(check (list (pair string string))) "carried"
       [ ("centroids", "centroids_1") ] body.carried
   | _ -> assert false);
  Alcotest.(check (list string)) "reads" [ "points"; "centroids" ]
    (List.map (fun i -> (Ir.Dag.node g i).Ir.Operator.output) loop.inputs);
  (* with a reader of the old centroids after it, the loop's result
     takes a fresh name, and keeping [centroids] breaks the rule *)
  let b = Ir.Builder.create () in
  let inputs =
    List.map
      (fun i -> Ir.Builder.input b (Ir.Dag.node g i).Ir.Operator.output)
      loop.inputs
  in
  let body =
    match loop.kind with
    | Ir.Operator.While { body; _ } -> body
    | _ -> assert false
  in
  let w =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Fixed_iterations 2)
      ~max_iterations:3 ~body inputs
  in
  let old = Ir.Builder.distinct b ~name:"old" (List.nth inputs 1) in
  let g = Ir.Builder.finish b ~outputs:[ w; old ] in
  Alcotest.(check (list string)) "fresh result"
    [ "points"; "centroids"; "centroids_1"; "old" ] (names g);
  match Ir.Dag.validate (renamed g (Ir.Builder.id w) "centroids") with
  | () -> Alcotest.fail "a read after the in-place update validated"
  | exception Ir.Dag.Invalid _ -> ()

let test_consumers_sinks () =
  let g, (inp, l, r, u) = diamond_graph () in
  Alcotest.(check (list int)) "input feeds both branches" [ l; r ]
    (Ir.Dag.consumers g inp);
  let sink_ids =
    List.map (fun (n : Ir.Operator.node) -> n.id) (Ir.Dag.sinks g)
  in
  Alcotest.(check (list int)) "union is the sink" [ u ] sink_ids

let test_topological_order () =
  let g, _ = diamond_graph () in
  let order =
    List.map (fun (n : Ir.Operator.node) -> n.id) (Ir.Dag.topological_order g)
  in
  Alcotest.(check int) "complete" 4 (List.length order);
  (* every node appears after its inputs *)
  List.iter
    (fun (n : Ir.Operator.node) ->
       let pos x =
         let rec go i = function
           | [] -> -1
           | y :: rest -> if x = y then i else go (i + 1) rest
         in
         go 0 order
       in
       List.iter
         (fun i -> Alcotest.(check bool) "resp. deps" true (pos i < pos n.id))
         n.inputs)
    g.Ir.Operator.nodes

let test_topological_orders_enumeration () =
  let g, _ = diamond_graph () in
  (* the two middle selects commute: exactly 2 linearizations *)
  Alcotest.(check int) "two orders" 2
    (List.length (Ir.Dag.topological_orders g))

let test_connectivity () =
  let g, (inp, l, r, u) = diamond_graph () in
  Alcotest.(check bool) "l,r disconnected" false
    (Ir.Dag.is_connected g [ l; r ]);
  Alcotest.(check bool) "l,u connected" true (Ir.Dag.is_connected g [ l; u ]);
  Alcotest.(check bool) "whole graph" true
    (Ir.Dag.is_connected g [ inp; l; r; u ])

let test_convexity () =
  let g, (inp, l, _r, u) = diamond_graph () in
  (* {input, left, union} leaves right outside, but a path
     input -> right -> union re-enters: not convex *)
  Alcotest.(check bool) "non-convex" false (Ir.Dag.convex g [ inp; l; u ]);
  Alcotest.(check bool) "convex prefix" true (Ir.Dag.convex g [ inp; l ])

let test_external_io () =
  let g = linear_graph () in
  let mid = (List.nth g.Ir.Operator.nodes 1).Ir.Operator.id in
  Alcotest.(check (list string)) "reads workflow input" [ "purchases" ]
    (Ir.Dag.external_inputs g [ mid ]);
  let outs =
    List.map
      (fun (n : Ir.Operator.node) -> n.output)
      (Ir.Dag.external_outputs g [ mid ])
  in
  Alcotest.(check (list string)) "select output consumed outside" [ "tmp1" ]
    outs

(* ---------------- Typing ---------------- *)

let test_typing_linear () =
  let g = linear_graph () in
  let schemas =
    Ir.Typing.infer ~catalog:(catalog_of [ ("purchases", schema_kv) ]) g
  in
  let out_schema = Hashtbl.find schemas 2 in
  Alcotest.(check (list string)) "group schema" [ "k"; "total" ]
    (Schema.column_names out_schema)

let test_typing_join () =
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" in
  let r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k" l r in
  let g = Ir.Builder.finish b ~outputs:[ j ] in
  let schemas =
    Ir.Typing.infer
      ~catalog:(catalog_of [ ("l", schema_kv); ("r", schema_kv) ])
      g
  in
  Alcotest.(check (list string)) "join drops right key, renames clash"
    [ "k"; "v"; "r_v" ]
    (Schema.column_names (Hashtbl.find schemas (Ir.Builder.id j)))

let test_typing_bad_predicate () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let sel = Ir.Builder.select b ~pred:Expr.(col "k" + int 1) inp in
  let g = Ir.Builder.finish b ~outputs:[ sel ] in
  (try
     ignore (Ir.Typing.infer ~catalog:(catalog_of [ ("r", schema_kv) ]) g);
     Alcotest.fail "expected Type_error"
   with Ir.Typing.Type_error _ -> ())

let test_typing_unknown_relation () =
  let g = linear_graph () in
  (try
     ignore (Ir.Typing.infer ~catalog:(catalog_of []) g);
     Alcotest.fail "expected Type_error"
   with Ir.Typing.Type_error _ -> ())

(* ---------------- Sizing ---------------- *)

let test_sizing_bounds () =
  let sel =
    Ir.Sizing.of_kind
      (Ir.Operator.Select { pred = Expr.(col "k" > int 0) })
      ~inputs:[ 100. ]
  in
  Alcotest.(check (option (float 1e-9))) "select bounded" (Some 100.) sel.upper;
  let join =
    Ir.Sizing.of_kind
      (Ir.Operator.Join { left_key = "k"; right_key = "k" })
      ~inputs:[ 100.; 50. ]
  in
  Alcotest.(check (option (float 1e-9))) "join unbounded" None join.upper

let test_sizing_merge_policy () =
  Alcotest.(check bool) "select safe" true
    (Ir.Sizing.safe_to_merge_without_history
       (Ir.Operator.Select { pred = Expr.(col "k" > int 0) })
       ~inputs:[ 100. ]);
  Alcotest.(check bool) "join unsafe without history" false
    (Ir.Sizing.safe_to_merge_without_history
       (Ir.Operator.Join { left_key = "k"; right_key = "k" })
       ~inputs:[ 100.; 50. ])

(* ---------------- Interpreter ---------------- *)

let test_interp_linear () =
  let g = linear_graph () in
  let store =
    Ir.Interp.store_of_list
      [ ("purchases", table_kv [ (1, 5); (1, 20); (2, 30); (2, 40) ]) ]
  in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] ->
    let sorted = Table.sort_by out [ "k" ] in
    Alcotest.(check int) "groups" 2 (Table.row_count out);
    Alcotest.(check int) "sum k=1 (5 filtered out)" 20
      (Value.to_int (Table.get sorted 0 "total"));
    Alcotest.(check int) "sum k=2" 70
      (Value.to_int (Table.get sorted 1 "total"))
  | _ -> Alcotest.fail "expected one output"

let test_interp_missing_input () =
  let g = linear_graph () in
  (try
     ignore (Ir.Interp.outputs ~store:(Ir.Interp.store_of_list []) g);
     Alcotest.fail "expected Runtime_error"
   with Ir.Interp.Runtime_error _ -> ())

(* WHILE: double v each iteration, 3 fixed iterations -> v * 8 *)
let doubling_while () =
  let body_b = Ir.Builder.create () in
  let state = Ir.Builder.input body_b "state" in
  let doubled =
    Ir.Builder.map body_b ~name:"state" ~target:"v"
      ~expr:Expr.(col "v" * int 2) state
  in
  let body =
    Ir.Builder.finish_body body_b ~carried:[ ("state", doubled) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "init" in
  let loop =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Fixed_iterations 3)
      ~max_iterations:10 ~body [ init ]
  in
  Ir.Builder.finish b ~outputs:[ loop ]

let test_interp_while_fixed () =
  let g = doubling_while () in
  let store = Ir.Interp.store_of_list [ ("init", table_kv [ (1, 3) ]) ] in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] ->
    Alcotest.(check int) "3 iterations: 3*2^3" 24
      (Value.to_int (Table.get out 0 "v"))
  | _ -> Alcotest.fail "expected one output"

(* WHILE until-empty: frontier shrinks via select v > 0, decrement *)
let test_interp_while_until_empty () =
  let body_b = Ir.Builder.create () in
  let state = Ir.Builder.input body_b "frontier" in
  let dec =
    Ir.Builder.map body_b ~target:"v" ~expr:Expr.(col "v" - int 1) state
  in
  let alive =
    Ir.Builder.select body_b ~name:"frontier" ~pred:Expr.(col "v" > int 0) dec
  in
  let body =
    Ir.Builder.finish_body body_b ~carried:[ ("frontier", alive) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "init" in
  let loop =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Until_empty "frontier")
      ~max_iterations:100 ~body [ init ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let store =
    Ir.Interp.store_of_list [ ("init", table_kv [ (1, 3); (2, 1) ]) ]
  in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] -> Alcotest.(check int) "drained" 0 (Table.row_count out)
  | _ -> Alcotest.fail "expected one output"

let test_interp_while_fixpoint () =
  (* clamp v at 10: v' = min(v+1, 10) via If; fixpoint after a few rounds *)
  let body_b = Ir.Builder.create () in
  let state = Ir.Builder.input body_b "state" in
  let next =
    Ir.Builder.map body_b ~name:"state" ~target:"v"
      ~expr:
        (Expr.If
           (Expr.(col "v" < int 10), Expr.(col "v" + int 1), Expr.col "v"))
      state
  in
  let body =
    Ir.Builder.finish_body body_b ~carried:[ ("state", next) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "init" in
  let loop =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Until_fixpoint "state")
      ~max_iterations:50 ~body [ init ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let store = Ir.Interp.store_of_list [ ("init", table_kv [ (1, 7) ]) ] in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] ->
    Alcotest.(check int) "converged to 10" 10
      (Value.to_int (Table.get out 0 "v"))
  | _ -> Alcotest.fail "expected one output"

let test_operator_count_recursive () =
  let g = doubling_while () in
  (* WHILE itself + 1 body op *)
  Alcotest.(check int) "recursive count" 2 (Ir.Dag.operator_count g)

let test_interp_until_empty_immediately () =
  (* the frontier starts empty: the loop still runs its first iteration
     and then stops (condition is checked after the body) *)
  let body_b = Ir.Builder.create () in
  let st = Ir.Builder.input body_b "f" in
  let next =
    Ir.Builder.select body_b ~name:"f" ~pred:Expr.(col "v" > int 0) st
  in
  let body =
    Ir.Builder.finish_body body_b ~carried:[ ("f", next) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "f" in
  let loop =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Until_empty "f")
      ~max_iterations:50 ~body [ init ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let store = Ir.Interp.store_of_list [ ("f", table_kv []) ] in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] -> Alcotest.(check int) "stays empty" 0 (Table.row_count out)
  | _ -> Alcotest.fail "expected one output"

let test_interp_nested_while () =
  (* outer loop runs twice; inner loop adds 3 each time: v += 2 * 3 *)
  let inner_b = Ir.Builder.create () in
  let s0 = Ir.Builder.input inner_b "s" in
  let s1 =
    Ir.Builder.map inner_b ~name:"s" ~target:"v" ~expr:Expr.(col "v" + int 1)
      s0
  in
  let inner =
    Ir.Builder.finish_body inner_b ~carried:[ ("s", s1) ]
  in
  let outer_b = Ir.Builder.create () in
  let o0 = Ir.Builder.input outer_b "s" in
  let o1 =
    Ir.Builder.while_ outer_b ~name:"s"
      ~condition:(Ir.Operator.Fixed_iterations 3) ~max_iterations:10
      ~body:inner [ o0 ]
  in
  let outer =
    Ir.Builder.finish_body outer_b ~carried:[ ("s", o1) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "s" in
  let loop =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Fixed_iterations 2)
      ~max_iterations:10 ~body:outer [ init ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let store = Ir.Interp.store_of_list [ ("s", table_kv [ (1, 0) ]) ] in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] ->
    Alcotest.(check int) "2 outer x 3 inner increments" 6
      (Value.to_int (Table.get out 0 "v"))
  | _ -> Alcotest.fail "expected one output"

let test_dag_to_dot_escaping () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let sel =
    Ir.Builder.select b ~name:"out"
      ~pred:Expr.(col "k" = str "quo\"ted")
      inp
  in
  let g = Ir.Builder.finish b ~outputs:[ sel ] in
  let dot = Ir.Dag.to_dot g in
  (* the raw quote must not appear unescaped inside a label *)
  Alcotest.(check bool) "digraph prefix" true
    (String.length dot > 7 && String.sub dot 0 7 = "digraph")

let test_udf () =
  let udf =
    { Ir.Operator.udf_name = "swap"; arity = 1;
      fn =
        (fun tables ->
           match tables with
           | [ t ] ->
             Table.create_unchecked (Table.schema t)
               (Array.map
                  (fun row -> [| row.(1); row.(0) |])
                  (Table.rows t))
           | _ -> assert false);
      out_schema = (fun schemas -> List.hd schemas);
      cost_factor = 1.0 }
  in
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let u = Ir.Builder.udf b udf [ inp ] in
  let g = Ir.Builder.finish b ~outputs:[ u ] in
  let store = Ir.Interp.store_of_list [ ("r", table_kv [ (1, 9) ]) ] in
  match Ir.Interp.outputs ~store g with
  | [ (_, out) ] ->
    Alcotest.(check int) "swapped" 9 (Value.to_int (Table.get out 0 "k"))
  | _ -> Alcotest.fail "expected one output"

(* ---------------- properties ---------------- *)

let gen_kv_rows =
  QCheck.list_of_size (QCheck.Gen.int_range 0 40)
    (QCheck.pair QCheck.small_int QCheck.small_int)

let prop_interp_matches_kernel =
  QCheck.Test.make ~name:"interp select = kernel select" ~count:60 gen_kv_rows
    (fun rows ->
      let t = table_kv rows in
      let pred = Expr.(col "v" > int 30) in
      let b = Ir.Builder.create () in
      let inp = Ir.Builder.input b "r" in
      let sel = Ir.Builder.select b ~pred inp in
      let g = Ir.Builder.finish b ~outputs:[ sel ] in
      let store = Ir.Interp.store_of_list [ ("r", t) ] in
      match Ir.Interp.outputs ~store g with
      | [ (_, out) ] -> Table.equal_unordered out (Kernel.select t pred)
      | _ -> false)

let prop_while_fixed_n_equals_unrolled =
  QCheck.Test.make ~name:"WHILE n = n-fold unrolling" ~count:40
    (QCheck.pair (QCheck.int_range 1 5) gen_kv_rows) (fun (n, rows) ->
      let t = table_kv rows in
      (* loop body: v := v + 1 *)
      let body_b = Ir.Builder.create () in
      let st = Ir.Builder.input body_b "s" in
      let inc =
        Ir.Builder.map body_b ~name:"s" ~target:"v"
          ~expr:Expr.(col "v" + int 1) st
      in
      let body =
        Ir.Builder.finish_body body_b ~carried:[ ("s", inc) ]
      in
      let b = Ir.Builder.create () in
      let init = Ir.Builder.input b "init" in
      let loop =
        Ir.Builder.while_ b ~condition:(Ir.Operator.Fixed_iterations n)
          ~max_iterations:100 ~body [ init ]
      in
      let g = Ir.Builder.finish b ~outputs:[ loop ] in
      let store = Ir.Interp.store_of_list [ ("init", t) ] in
      let expected = ref t in
      for _ = 1 to n do
        expected :=
          Kernel.map_column !expected ~target:"v" ~expr:Expr.(col "v" + int 1)
      done;
      match Ir.Interp.outputs ~store g with
      | [ (_, out) ] -> Table.equal_unordered out !expected
      | _ -> false)

let prop_topo_order_stable =
  QCheck.Test.make ~name:"topological order respects edges" ~count:40
    (QCheck.int_range 2 10) (fun n ->
      (* chain of n selects *)
      let b = Ir.Builder.create () in
      let h = ref (Ir.Builder.input b "r") in
      for _ = 1 to n do
        h := Ir.Builder.select b ~pred:Expr.(col "k" > int 0) !h
      done;
      let g = Ir.Builder.finish b ~outputs:[ !h ] in
      let order = Ir.Dag.topological_order g in
      List.for_all2
        (fun (a : Ir.Operator.node) (b : Ir.Operator.node) -> a.id < b.id)
        (List.filteri (fun i _ -> i < n) order)
        (List.tl order))

(* random pipeline generator over the kv schema: a list of stage codes
   drives which unary operators are stacked on the input *)
let gen_pipeline = QCheck.list_of_size (QCheck.Gen.int_range 0 6) (QCheck.int_range 0 5)

let build_pipeline stages =
  let b = Ir.Builder.create () in
  let h = ref (Ir.Builder.input b "r") in
  List.iteri
    (fun i stage ->
       h :=
         match stage with
         | 0 ->
           let threshold = 7 * i in
           Ir.Builder.select b ~pred:Expr.(col "v" > int threshold) !h
         | 1 -> Ir.Builder.map b ~target:"w" ~expr:Expr.(col "v" + int i) !h
         | 2 -> Ir.Builder.distinct b !h
         | 3 -> Ir.Builder.project b ~columns:[ "k"; "v" ] !h
         | 4 ->
           Ir.Builder.group_by b ~keys:[ "k" ]
             ~aggs:[ Aggregate.make (Aggregate.Max "v") ~as_name:"v" ]
             !h
         | _ -> Ir.Builder.sort b ~by:"v" ~descending:(i mod 2 = 0) !h)
    stages;
  Ir.Builder.finish b ~outputs:[ !h ]

(* the static schema inference must agree with the schema of the tables
   the interpreter actually produces, node by node *)
let prop_typing_agrees_with_runtime =
  QCheck.Test.make ~name:"Typing.infer = runtime schemas" ~count:80
    gen_pipeline (fun stages ->
      (* group_by over a projected-away column would be ill-typed; the
         generator keeps k and v alive so all stacks type-check *)
      let g = build_pipeline stages in
      let catalog = function
        | "r" -> schema_kv
        | _ -> raise Not_found
      in
      let inferred = Ir.Typing.infer ~catalog g in
      let store =
        Ir.Interp.store_of_list
          [ ("r", table_kv (List.init 40 (fun i -> (i mod 5, i * 3)))) ]
      in
      let bindings = Ir.Interp.run ~store g in
      List.for_all
        (fun (n : Ir.Operator.node) ->
           let actual =
             Table.schema (List.assoc n.output (List.rev bindings))
           in
           Schema.equal (Hashtbl.find inferred n.id) actual)
        g.Ir.Operator.nodes)

let prop_exec_helper_matches_interp =
  QCheck.Test.make ~name:"Exec_helper tables = Interp tables" ~count:50
    gen_pipeline (fun stages ->
      let g = build_pipeline stages in
      let rows = List.init 50 (fun i -> (i mod 6, i * 2)) in
      let store = Ir.Interp.store_of_list [ ("r", table_kv rows) ] in
      let expected = Ir.Interp.outputs ~store g in
      let hdfs = Engines.Hdfs.create () in
      Engines.Hdfs.put hdfs "r" ~modeled_mb:32. (table_kv rows);
      let exec = Engines.Exec_helper.execute ~hdfs g in
      List.for_all2
        (fun (_, expected_table) (_, actual, _) ->
           Table.equal_unordered expected_table actual)
        expected exec.Engines.Exec_helper.outputs)

let prop_sizing_estimates_positive =
  QCheck.Test.make ~name:"sizing estimates nonnegative and bounded" ~count:80
    (QCheck.pair (QCheck.float_range 0. 10000.) (QCheck.float_range 0. 10000.))
    (fun (a, b) ->
      List.for_all
        (fun kind ->
           let est = Ir.Sizing.of_kind kind ~inputs:[ a; b ] in
           est.Ir.Sizing.expected >= 0.
           &&
           match est.Ir.Sizing.upper with
           | Some u -> est.Ir.Sizing.expected <= u +. 1e-9
           | None -> true)
        [ Ir.Operator.Select { pred = Expr.bool true };
          Ir.Operator.Union; Ir.Operator.Intersect; Ir.Operator.Difference;
          Ir.Operator.Distinct; Ir.Operator.Cross;
          Ir.Operator.Join { left_key = "k"; right_key = "k" } ])

(* ---- canonical hash: memoization and structural properties ---- *)

let hash_computed () =
  Obs.Metrics.counter Obs.Metrics.default "ir.canonical_hash.computed"

(* the memo hit must survive read-only accessors: a second
   [canonical_hash] after traversals returns the cached digest without
   recomputing *)
let test_hash_memoized () =
  let g = build_pipeline [ 0; 1; 4; 2 ] in
  let h1 = Ir.Dag.canonical_hash g in
  let computed = hash_computed () in
  ignore (Ir.Dag.operator_count g);
  ignore (Ir.Dag.topological_order g);
  ignore (Ir.Dag.sinks g);
  ignore (Ir.Dag.output_relations g);
  ignore (Ir.Dag.to_dot g);
  let h2 = Ir.Dag.canonical_hash g in
  Alcotest.(check string) "hash stable across accessors" h1 h2;
  Alcotest.(check int) "no recomputation" computed (hash_computed ());
  (* an equal graph built separately is a different physical value:
     same digest, computed fresh *)
  let g' = build_pipeline [ 0; 1; 4; 2 ] in
  Alcotest.(check string) "same structure, same digest" h1
    (Ir.Dag.canonical_hash g');
  Alcotest.(check bool) "fresh graph recomputes" true
    (hash_computed () > computed)

let lite_seed =
  match
    Option.bind (Sys.getenv_opt "MUSKETEER_TEST_SEED") int_of_string_opt
  with
  | Some n -> n
  | None -> 2026

(* insertion order is representation, not structure: building branch B
   before branch A renumbers every node yet must not move the hash *)
let test_hash_insertion_order_invariant () =
  try
    Qcheck_lite.check ~count:100 ~seed:lite_seed
      ~name:"canonical hash ignores insertion order"
      Qcheck_lite.branch_pair_arbitrary
      (fun p ->
         Ir.Dag.canonical_hash (Qcheck_lite.graph_of_branches ~flipped:false p)
         = Ir.Dag.canonical_hash
             (Qcheck_lite.graph_of_branches ~flipped:true p))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* a one-op semantic mutation must move the hash *)
let test_hash_distinguishes_semantics () =
  try
    Qcheck_lite.check ~count:100 ~seed:lite_seed
      ~name:"canonical hash separates semantically different DAGs"
      Qcheck_lite.spec_arbitrary
      (fun (spec : Qcheck_lite.workflow_spec) ->
         let mutated =
           { spec with
             Qcheck_lite.ops = Qcheck_lite.mutate_ops spec.Qcheck_lite.ops }
         in
         Ir.Dag.canonical_hash (Qcheck_lite.graph_of_spec spec)
         <> Ir.Dag.canonical_hash (Qcheck_lite.graph_of_spec mutated))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* a shared subtree consumed twice hashes differently from two
   physically duplicated copies of it only in node count, and the
   multiset encoding keeps genuinely identical graphs equal even when
   two nodes carry identical per-node hashes *)
let test_hash_duplicate_nodes () =
  let twice_shared () =
    let b = Ir.Builder.create () in
    let s =
      Ir.Builder.select b ~pred:Expr.(col "v" > int 1) (Ir.Builder.input b "r")
    in
    let u = Ir.Builder.union b ~name:"out" s s in
    Ir.Builder.finish b ~outputs:[ u ]
  in
  let twice_copied () =
    let b = Ir.Builder.create () in
    let inp = Ir.Builder.input b "r" in
    let s1 = Ir.Builder.select b ~pred:Expr.(col "v" > int 1) inp in
    let s2 = Ir.Builder.select b ~pred:Expr.(col "v" > int 1) inp in
    let u = Ir.Builder.union b ~name:"out" s1 s2 in
    Ir.Builder.finish b ~outputs:[ u ]
  in
  Alcotest.(check string) "identical builds agree"
    (Ir.Dag.canonical_hash (twice_shared ()))
    (Ir.Dag.canonical_hash (twice_shared ()));
  Alcotest.(check string) "duplicated builds agree"
    (Ir.Dag.canonical_hash (twice_copied ()))
    (Ir.Dag.canonical_hash (twice_copied ()));
  Alcotest.(check bool) "shared /= duplicated" true
    (Ir.Dag.canonical_hash (twice_shared ())
     <> Ir.Dag.canonical_hash (twice_copied ()))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_interp_matches_kernel; prop_while_fixed_n_equals_unrolled;
      prop_topo_order_stable; prop_typing_agrees_with_runtime;
      prop_exec_helper_matches_interp; prop_sizing_estimates_positive ]

let () =
  Alcotest.run "ir"
    [ ( "dag",
        [ Alcotest.test_case "builder linear" `Quick test_builder_linear;
          Alcotest.test_case "bad arity" `Quick test_validate_rejects_bad_arity;
          Alcotest.test_case "bad WHILE" `Quick test_validate_rejects_bad_while;
          Alcotest.test_case "forward edge" `Quick
            test_validate_rejects_forward_edge;
          Alcotest.test_case "unique names" `Quick test_unique_names;
          Alcotest.test_case "fresh names" `Quick test_fresh_names;
          Alcotest.test_case "k-means updates in place" `Quick
            test_kmeans_in_place;
          Alcotest.test_case "consumers/sinks" `Quick test_consumers_sinks;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "order enumeration" `Quick
            test_topological_orders_enumeration;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "convexity" `Quick test_convexity;
          Alcotest.test_case "external io" `Quick test_external_io;
          Alcotest.test_case "operator count" `Quick
            test_operator_count_recursive ] );
      ( "typing",
        [ Alcotest.test_case "linear" `Quick test_typing_linear;
          Alcotest.test_case "join" `Quick test_typing_join;
          Alcotest.test_case "bad predicate" `Quick test_typing_bad_predicate;
          Alcotest.test_case "unknown relation" `Quick
            test_typing_unknown_relation ] );
      ( "sizing",
        [ Alcotest.test_case "bounds" `Quick test_sizing_bounds;
          Alcotest.test_case "merge policy" `Quick test_sizing_merge_policy ] );
      ( "interp",
        [ Alcotest.test_case "linear" `Quick test_interp_linear;
          Alcotest.test_case "missing input" `Quick test_interp_missing_input;
          Alcotest.test_case "while fixed" `Quick test_interp_while_fixed;
          Alcotest.test_case "while until empty" `Quick
            test_interp_while_until_empty;
          Alcotest.test_case "while fixpoint" `Quick test_interp_while_fixpoint;
          Alcotest.test_case "until empty immediately" `Quick
            test_interp_until_empty_immediately;
          Alcotest.test_case "nested while" `Quick test_interp_nested_while;
          Alcotest.test_case "dot escaping" `Quick test_dag_to_dot_escaping;
          Alcotest.test_case "udf" `Quick test_udf ] );
      ( "hash",
        [ Alcotest.test_case "memoized across accessors" `Quick
            test_hash_memoized;
          Alcotest.test_case "insertion-order invariant" `Quick
            test_hash_insertion_order_invariant;
          Alcotest.test_case "separates semantics" `Quick
            test_hash_distinguishes_semantics;
          Alcotest.test_case "shared vs duplicated subtree" `Quick
            test_hash_duplicate_nodes ] );
      ("properties", qcheck_cases) ]
