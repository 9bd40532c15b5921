(* Tests for the front-end layer: lexer, expression parser, BEER, the
   HiveQL subset, the GAS DSL translation, and the Lindi combinators —
   including cross-front-end equivalence (the same workflow written in
   two languages computes identical results through the interpreter). *)

open Relation

let kv_schema =
  Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                { Schema.name = "v"; ty = Value.Tint } ]

let kv_table rows =
  Table.create kv_schema
    (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)

let run_graph graph bindings =
  Ir.Interp.outputs ~store:(Ir.Interp.store_of_list bindings) graph

let last_output graph bindings = snd (List.hd (run_graph graph bindings))

(* ---------------- Lexer ---------------- *)

let test_lexer_tokens () =
  let tokens =
    List.map (fun t -> t.Frontends.Lexer.token)
      (Frontends.Lexer.tokenize "SELECT a.b, 42 1.5 'hi' <= != -- note\nx")
  in
  Alcotest.(check bool) "kinds" true
    (tokens
     = [ Frontends.Lexer.Ident "SELECT"; Frontends.Lexer.Qualified ("a", "b");
         Frontends.Lexer.Punct ","; Frontends.Lexer.Int_lit 42;
         Frontends.Lexer.Float_lit 1.5; Frontends.Lexer.String_lit "hi";
         Frontends.Lexer.Punct "<="; Frontends.Lexer.Punct "!=";
         Frontends.Lexer.Ident "x"; Frontends.Lexer.Eof ])

let test_lexer_hash_inside_string () =
  (* '#' starts a comment, except inside string literals *)
  let tokens =
    List.map (fun t -> t.Frontends.Lexer.token)
      (Frontends.Lexer.tokenize "'Brand#23' # trailing comment")
  in
  Alcotest.(check bool) "string preserved" true
    (tokens = [ Frontends.Lexer.String_lit "Brand#23"; Frontends.Lexer.Eof ])

let test_lexer_line_numbers () =
  let tokens = Frontends.Lexer.tokenize "a\nb\n  c" in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ]
    (List.map (fun t -> t.Frontends.Lexer.line) tokens)

let test_lexer_error () =
  (try
     ignore (Frontends.Lexer.tokenize "a ? b");
     Alcotest.fail "expected Lex_error"
   with Frontends.Lexer.Lex_error (_, 1) -> ())

(* ---------------- expression parser ---------------- *)

let parse_expr s = Frontends.Parse_state.expr (Frontends.Parse_state.of_string s)

let test_expr_precedence () =
  let schema =
    Schema.make [ { Schema.name = "a"; ty = Value.Tint };
                  { Schema.name = "b"; ty = Value.Tint } ]
  in
  let eval e a b = Expr.eval schema [| Value.Int a; Value.Int b |] e in
  (* * binds tighter than + *)
  Alcotest.(check int) "a + b * 2" 21
    (Value.to_int (eval (parse_expr "a + b * 2") 1 10));
  (* comparison below arithmetic; AND below comparison *)
  Alcotest.(check bool) "a + 1 > b and b < 5" true
    (Value.equal (eval (parse_expr "a + 1 > b AND b < 5") 3 2)
       (Value.Bool true));
  (* OR weaker than AND *)
  Alcotest.(check bool) "false and false or true" true
    (Value.equal
       (eval (parse_expr "a > 99 AND b > 99 OR a = 3") 3 2)
       (Value.Bool true));
  (* parentheses *)
  Alcotest.(check int) "(a + b) * 2" 10
    (Value.to_int (eval (parse_expr "(a + b) * 2") 2 3))

let test_expr_unary_minus_and_qualified () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.Tint } ] in
  Alcotest.(check int) "-5 + x" (-3)
    (Value.to_int (Expr.eval schema [| Value.Int 2 |] (parse_expr "-5 + x")));
  Alcotest.(check int) "rel.x resolves to column" 2
    (Value.to_int (Expr.eval schema [| Value.Int 2 |] (parse_expr "t.x")))

(* ---------------- BEER ---------------- *)

let purchases_rows =
  [ (1, 700); (1, 600); (2, 100); (2, 50); (3, 2000) ]

let test_beer_select_group () =
  let g =
    Frontends.Beer.parse
      "spend = SELECT k, SUM(v) AS total FROM purchases GROUP BY k;\n\
       big = SELECT k, total FROM spend WHERE total > 1000;\n\
       OUTPUT big;\n"
  in
  let out = last_output g [ ("purchases", kv_table purchases_rows) ] in
  Alcotest.(check int) "two big spenders" 2 (Table.row_count out)

let test_beer_rename () =
  let g =
    Frontends.Beer.parse
      "renamed = SELECT k AS id, MAX(v) AS best FROM r GROUP BY k;\n\
       OUTPUT renamed;\n"
  in
  let out = last_output g [ ("r", kv_table purchases_rows) ] in
  Alcotest.(check (list string)) "renamed columns" [ "id"; "best" ]
    (Schema.column_names (Table.schema out))

let test_beer_join_union_distinct_top () =
  let g =
    Frontends.Beer.parse
      "j = a JOIN b ON k = k;\n\
       u = a UNION b;\n\
       d = DISTINCT u;\n\
       t = TOP 2 OF d BY v;\n\
       OUTPUT t;\n"
  in
  let bindings =
    [ ("a", kv_table [ (1, 5); (2, 9) ]); ("b", kv_table [ (1, 5); (3, 7) ]) ]
  in
  let out = last_output g bindings in
  Alcotest.(check int) "top 2" 2 (Table.row_count out);
  Alcotest.(check int) "largest v first" 9 (Value.to_int (Table.get out 0 "v"))

let test_beer_semi_anti_join () =
  let g =
    Frontends.Beer.parse
      "s = a SEMIJOIN b ON k = k;\n\
       t = a ANTIJOIN b ON k = k;\n\
       u = s UNION t;\n\
       OUTPUT u;\n"
  in
  let a = kv_table [ (1, 5); (2, 9); (3, 7) ]
  and b = kv_table [ (1, 0) ] in
  let out = last_output g [ ("a", a); ("b", b) ] in
  Alcotest.(check bool) "semi + anti rebuild the left side" true
    (Table.equal_unordered a out)

let test_lindi_left_outer_join () =
  let q =
    Frontends.Lindi.left_outer_join ~on:("k", "k")
      ~defaults:[ Value.Int (-1) ]
      (Frontends.Lindi.read "a")
      (Frontends.Lindi.read "b")
  in
  let g = Frontends.Lindi.finish ~name:"out" q in
  let out =
    last_output g
      [ ("a", kv_table [ (1, 5); (2, 9) ]); ("b", kv_table [ (1, 100) ]) ]
  in
  Alcotest.(check int) "both left rows" 2 (Table.row_count out);
  let sorted = Table.sort_by out [ "k" ] in
  Alcotest.(check int) "default fills unmatched" (-1)
    (Value.to_int (Table.get sorted 1 "r_v"))

let test_beer_while_iteration () =
  let g =
    Frontends.Beer.parse
      "acc = INPUT 'seed';\n\
       WHILE (ITERATION < 3) {\n\
       \  acc = MAP acc SET v = v + 1;\n\
       }\n\
       OUTPUT acc;\n"
  in
  let out = last_output g [ ("seed", kv_table [ (1, 0) ]) ] in
  Alcotest.(check int) "three increments" 3 (Value.to_int (Table.get out 0 "v"))

let test_beer_while_loop_carried_inference () =
  (* 'edges' is read-only, 'frontier' is carried *)
  let g = Workloads.Workflows.sssp ~max_rounds:30 () in
  let while_body =
    List.find_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.While { body; _ } -> Some body
         | _ -> None)
      g.Ir.Operator.nodes
    |> Option.get
  in
  Alcotest.(check (list (pair string string))) "carried"
    [ ("dists", "dists_1") ]
    while_body.Ir.Operator.carried

let test_beer_parse_errors () =
  let expect_error src =
    try
      ignore (Frontends.Beer.parse src);
      Alcotest.fail "expected Parse_error"
    with Frontends.Beer.Parse_error _ -> ()
  in
  expect_error "x = SELECT FROM r;";
  expect_error "x = r JOIN;";
  expect_error "WHILE (ITERATION < 2) { y = MAP r SET v = v + 1; }";
  (* WHILE must re-bind something it reads *)
  expect_error "= broken"

(* a name bound more than once: only the final binding keeps it, and
   every case computes what its bindings say (cases in rebinding.ml) *)
let test_rebinding () =
  let csv t = Table.to_csv (Table.sort_with t compare) in
  let names (g : Ir.Operator.graph) =
    List.map (fun (n : Ir.Operator.node) -> n.output) g.nodes
  in
  let expect label ?body outputs expected_names =
    let _, graph, inputs =
      List.find (fun (l, _, _) -> l = label) Rebinding.cases
    in
    let g = graph () in
    Alcotest.(check (list (pair string string))) (label ^ ": outputs")
      (List.map (fun (n, t) -> (n, csv t)) outputs)
      (List.map (fun (n, t) -> (n, csv t)) (run_graph g inputs));
    Alcotest.(check (list string)) (label ^ ": names") expected_names
      (names g);
    Option.iter
      (fun expected ->
         let body =
           List.find_map
             (fun (n : Ir.Operator.node) ->
                match n.kind with
                | Ir.Operator.While { body; _ } -> Some body
                | _ -> None)
             g.nodes
         in
         Alcotest.(check (list string)) (label ^ ": body names") expected
           (names (Option.get body)))
      body
  in
  expect "beer sssp"
    ~body:[ "dists"; "edges"; "step"; "cand"; "tmp4"; "tmp5"; "next";
            "dists_1"; "dists_2" ]
    [ ("dists",
       Rebinding.table [ "node"; "cost" ]
         [ [ 1; 0 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 6 ] ]) ]
    [ "seeds"; "edges"; "dists" ];
  expect "beer select then loop"
    [ ("d_1", kv_table [ (1, 0); (2, 2) ]);
      ("d", kv_table [ (1, 4); (2, 4) ]) ]
    [ "r"; "tmp1"; "d_1"; "d" ];
  (* the WHILE would overwrite [d] while [old] still reads it *)
  expect "beer input after loop"
    [ ("delta", kv_table [ (1, 4); (2, 4) ]) ]
    [ "d"; "d_1"; "d"; "delta" ];
  (* d = f, then f = DISTINCT (d + 1): d5 = DISTINCT (f0 + 2) *)
  expect "beer carried out of order" ~body:[ "d"; "f"; "e"; "d_1"; "f_1" ]
    [ ("d", kv_table [ (1, 2); (2, 4) ]) ]
    [ "d"; "f"; "d" ];
  expect "pig alias twice"
    [ ("out", kv_table [ (2, 2); (4, 5) ]) ]
    [ "r"; "b_1"; "b_2"; "b"; "out" ];
  expect "hive name twice"
    [ ("x", kv_table [ (2, 2); (4, 5); (4, 5) ]) ]
    [ "r"; "tmp1"; "x_1"; "tmp3"; "x" ]

(* ---------------- Hive ---------------- *)

let test_hive_listing1 () =
  (* the paper's max-property-price workflow (Listing 1) *)
  let properties =
    Table.create
      (Schema.make
         [ { Schema.name = "id"; ty = Value.Tint };
           { Schema.name = "street"; ty = Value.Tstring };
           { Schema.name = "town"; ty = Value.Tstring } ])
      [ [| Value.Int 1; Value.Str "king st"; Value.Str "cambridge" |];
        [| Value.Int 2; Value.Str "king st"; Value.Str "cambridge" |];
        [| Value.Int 3; Value.Str "mill rd"; Value.Str "cambridge" |] ]
  and prices =
    Table.create
      (Schema.make
         [ { Schema.name = "pid"; ty = Value.Tint };
           { Schema.name = "price"; ty = Value.Tint } ])
      [ [| Value.Int 1; Value.Int 100 |]; [| Value.Int 2; Value.Int 350 |];
        [| Value.Int 3; Value.Int 200 |] ]
  in
  let g =
    Frontends.Hive.parse
      "SELECT id, street, town FROM properties AS locs;\n\
       locs JOIN prices ON locs.id = prices.pid AS id_price;\n\
       SELECT street, town, MAX(price) AS max_price FROM id_price \
       GROUP BY street AND town AS street_price;\n"
  in
  let out =
    last_output g [ ("properties", properties); ("prices", prices) ]
  in
  let sorted = Table.sort_by out [ "street" ] in
  Alcotest.(check int) "two streets" 2 (Table.row_count out);
  Alcotest.(check int) "king st max" 350
    (Value.to_int (Table.get sorted 0 "max_price"));
  Alcotest.(check int) "mill rd max" 200
    (Value.to_int (Table.get sorted 1 "max_price"))

let test_hive_where_and_setops () =
  let g =
    Frontends.Hive.parse
      "SELECT k, v FROM a WHERE v > 5 AS big;\n\
       big UNION b AS all_rows;\n\
       all_rows INTERSECT b AS common;\n"
  in
  let out =
    last_output g
      [ ("a", kv_table [ (1, 10); (2, 3) ]); ("b", kv_table [ (1, 10); (9, 9) ]) ]
  in
  Alcotest.(check int) "intersect" 2 (Table.row_count out)

let test_hive_having () =
  let g =
    Frontends.Hive.parse
      "SELECT k, SUM(v) AS total FROM r GROUP BY k HAVING total > 50 \
       AS big;\n"
  in
  let out =
    last_output g [ ("r", kv_table [ (1, 60); (1, 10); (2, 5) ]) ]
  in
  Alcotest.(check int) "one group over 50" 1 (Table.row_count out);
  Alcotest.(check int) "group 1" 1 (Value.to_int (Table.get out 0 "k"))

let test_hive_parse_errors () =
  (try
     ignore (Frontends.Hive.parse "SELECT a FROM r");  (* missing AS *)
     Alcotest.fail "expected Parse_error"
   with Frontends.Hive.Parse_error _ -> ())

(* cross-front-end equivalence: top-shopper in BEER vs Hive *)
let test_beer_hive_equivalence () =
  let purchases =
    Table.create
      (Schema.make
         [ { Schema.name = "uid"; ty = Value.Tint };
           { Schema.name = "region"; ty = Value.Tstring };
           { Schema.name = "amount"; ty = Value.Tint } ])
      (List.init 60 (fun i ->
           [| Value.Int (i mod 6);
              Value.Str (if i mod 2 = 0 then "EU" else "US");
              Value.Int (i * 37 mod 500) |]))
  in
  let beer = Workloads.Workflows.top_shopper () in
  let hive =
    Frontends.Hive.parse
      "SELECT uid, SUM(amount) AS total FROM purchases \
       WHERE region = 'EU' GROUP BY uid AS spend;\n\
       SELECT uid, total FROM spend WHERE total > 1000 AS big_spenders;\n"
  in
  Alcotest.(check bool) "identical results" true
    (Table.equal_unordered
       (last_output beer [ ("purchases", purchases) ])
       (last_output hive [ ("purchases", purchases) ]))

(* ---------------- GAS ---------------- *)

let test_gas_parse_listing2 () =
  let p =
    Frontends.Gas.parse (Workloads.Workflows.pagerank_gas_source ~iterations:20)
  in
  Alcotest.(check int) "iterations" 20 p.Frontends.Gas.iterations;
  Alcotest.(check bool) "gather sum" true
    (p.Frontends.Gas.gather = Frontends.Gas.Gather_sum);
  Alcotest.(check int) "two apply steps" 2
    (List.length p.Frontends.Gas.apply);
  Alcotest.(check int) "one scatter step" 1
    (List.length p.Frontends.Gas.scatter)

(* hand-computed PageRank on a 3-vertex cycle: by symmetry all ranks
   stay exactly 1.0 under the 0.15 + 0.85 * sum(rank/degree) update *)
let test_gas_pagerank_semantics () =
  let vertices =
    Table.create
      (Schema.make
         [ { Schema.name = "id"; ty = Value.Tint };
           { Schema.name = "vertex_value"; ty = Value.Tfloat };
           { Schema.name = "vertex_degree"; ty = Value.Tint } ])
      [ [| Value.Int 0; Value.Float 1.; Value.Int 1 |];
        [| Value.Int 1; Value.Float 1.; Value.Int 1 |];
        [| Value.Int 2; Value.Float 1.; Value.Int 1 |] ]
  and edges =
    Table.create
      (Schema.make
         [ { Schema.name = "src"; ty = Value.Tint };
           { Schema.name = "dst"; ty = Value.Tint } ])
      [ [| Value.Int 0; Value.Int 1 |]; [| Value.Int 1; Value.Int 2 |];
        [| Value.Int 2; Value.Int 0 |] ]
  in
  let g = Workloads.Workflows.pagerank_gas ~iterations:4 () in
  let out =
    last_output g [ ("vertices", vertices); ("edges", edges) ]
  in
  Alcotest.(check int) "all vertices kept" 3 (Table.row_count out);
  Array.iter
    (fun row ->
       Alcotest.(check (float 1e-9)) "rank stays 1 on a cycle" 1.
         (Value.to_float row.(1)))
    (Table.rows out)

let test_gas_dangling_vertex_gets_base_rank () =
  (* vertex 2 has no in-edges: after one iteration its rank must be the
     0.15 base, not disappear *)
  let vertices =
    Table.create
      (Schema.make
         [ { Schema.name = "id"; ty = Value.Tint };
           { Schema.name = "vertex_value"; ty = Value.Tfloat };
           { Schema.name = "vertex_degree"; ty = Value.Tint } ])
      [ [| Value.Int 0; Value.Float 1.; Value.Int 1 |];
        [| Value.Int 1; Value.Float 1.; Value.Int 1 |];
        [| Value.Int 2; Value.Float 1.; Value.Int 1 |] ]
  and edges =
    Table.create
      (Schema.make
         [ { Schema.name = "src"; ty = Value.Tint };
           { Schema.name = "dst"; ty = Value.Tint } ])
      [ [| Value.Int 0; Value.Int 1 |]; [| Value.Int 1; Value.Int 0 |];
        [| Value.Int 2; Value.Int 0 |] ]
  in
  let g = Workloads.Workflows.pagerank_gas ~iterations:1 () in
  let out = last_output g [ ("vertices", vertices); ("edges", edges) ] in
  let sorted = Table.sort_by out [ "id" ] in
  Alcotest.(check int) "all vertices kept" 3 (Table.row_count out);
  Alcotest.(check (float 1e-9)) "dangling vertex at base rank" 0.15
    (Value.to_float (Table.get sorted 2 "vertex_value"))

let test_gas_errors () =
  let expect_error src =
    try
      ignore (Frontends.Gas.parse src);
      Alcotest.fail "expected Parse_error"
    with Frontends.Gas.Parse_error _ -> ()
  in
  expect_error "GATHER = { SUM (vertex_value) }";  (* no ITERATION_STOP *)
  expect_error "ITERATION_STOP = (iteration < 5)";  (* no GATHER *)
  expect_error "GATHER = { FOO (vertex_value) } ITERATION_STOP = (iteration < 5)"

(* ---------------- Pig ---------------- *)

let test_pig_aggregation_idiom () =
  let purchases =
    Table.create
      (Schema.make
         [ { Schema.name = "uid"; ty = Value.Tint };
           { Schema.name = "region"; ty = Value.Tstring };
           { Schema.name = "amount"; ty = Value.Tint } ])
      [ [| Value.Int 1; Value.Str "EU"; Value.Int 800 |];
        [| Value.Int 1; Value.Str "EU"; Value.Int 400 |];
        [| Value.Int 2; Value.Str "US"; Value.Int 5000 |];
        [| Value.Int 3; Value.Str "EU"; Value.Int 100 |] ]
  in
  let g =
    Frontends.Pig.parse
      "purchases = LOAD 'purchases';\n\
       eu = FILTER purchases BY region == 'EU';\n\
       by_user = GROUP eu BY uid;\n\
       spend = FOREACH by_user GENERATE group, SUM(amount) AS total;\n\
       big = FILTER spend BY total > 1000;\n\
       STORE big INTO 'big_spenders';\n"
  in
  let out = last_output g [ ("purchases", purchases) ] in
  Alcotest.(check int) "one big spender" 1 (Table.row_count out);
  Alcotest.(check int) "user 1" 1 (Value.to_int (Table.get out 0 "uid"));
  (* equivalent to the BEER top-shopper *)
  let beer = Workloads.Workflows.top_shopper () in
  Alcotest.(check bool) "pig = beer" true
    (Table.equal_unordered out (last_output beer [ ("purchases", purchases) ]))

let test_pig_foreach_generate () =
  let g =
    Frontends.Pig.parse
      "r = LOAD 'r';\n\
       doubled = FOREACH r GENERATE k, v AS amount, v * 2 AS twice;\n"
  in
  let out = last_output g [ ("r", kv_table [ (1, 10); (2, 20) ]) ] in
  Alcotest.(check (list string)) "generated shape" [ "k"; "amount"; "twice" ]
    (Schema.column_names (Table.schema out));
  let sorted = Table.sort_by out [ "k" ] in
  Alcotest.(check int) "computed column" 20
    (Value.to_int (Table.get sorted 0 "twice"))

let test_pig_join_order_limit () =
  let g =
    Frontends.Pig.parse
      "a = LOAD 'a';\n\
       b = LOAD 'b';\n\
       j = JOIN a BY k, b BY k;\n\
       sorted = ORDER j BY v DESC;\n\
       top = LIMIT sorted 2;\n\
       STORE top INTO 'top';\n"
  in
  let bindings =
    [ ("a", kv_table [ (1, 5); (2, 9); (3, 7) ]);
      ("b", kv_table [ (1, 0); (2, 0); (3, 0) ]) ]
  in
  let out = last_output g bindings in
  Alcotest.(check int) "limited" 2 (Table.row_count out);
  Alcotest.(check int) "largest v first" 9 (Value.to_int (Table.get out 0 "v"))

let test_pig_errors () =
  let expect_error src =
    try
      ignore (Frontends.Pig.parse src);
      Alcotest.fail "expected Parse_error"
    with Frontends.Pig.Parse_error _ -> ()
  in
  (* aggregating an ungrouped relation *)
  expect_error "r = LOAD 'r';\nx = FOREACH r GENERATE group, SUM(v);\n";
  (* using a grouped relation as plain *)
  expect_error "r = LOAD 'r';\ng = GROUP r BY k;\nx = FILTER g BY v > 1;\n";
  (* LIMIT without ORDER *)
  expect_error "r = LOAD 'r';\nx = LIMIT r 5;\n";
  (* unknown relation *)
  expect_error "x = FILTER nope BY v > 1;\n"

(* ---------------- Lindi ---------------- *)

let test_lindi_pipeline () =
  let q =
    Frontends.Lindi.read "purchases"
    |> Frontends.Lindi.where Expr.(col "v" > int 99)
    |> Frontends.Lindi.group_by ~keys:[ "k" ]
         ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"total" ]
  in
  let g = Frontends.Lindi.finish ~name:"spend" q in
  let out = last_output g [ ("purchases", kv_table purchases_rows) ] in
  Alcotest.(check int) "groups over 99" 3 (Table.row_count out)

let test_lindi_shared_subquery () =
  (* a let-bound query used twice elaborates to a single node *)
  let base = Frontends.Lindi.read "r" in
  let left = Frontends.Lindi.where Expr.(col "v" > int 1) base in
  let q = Frontends.Lindi.join ~on:("k", "k") left base in
  let g = Frontends.Lindi.finish ~name:"out" q in
  let inputs =
    List.filter
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> true | _ -> false)
      g.Ir.Operator.nodes
  in
  Alcotest.(check int) "one shared input node" 1 (List.length inputs);
  (* structurally equal queries built separately stay two nodes *)
  let twice =
    Frontends.Lindi.union
      (Frontends.Lindi.where Expr.(col "v" > int 1) (Frontends.Lindi.read "r"))
      (Frontends.Lindi.where Expr.(col "v" > int 1) (Frontends.Lindi.read "r"))
  in
  let kinds =
    List.map
      (fun (n : Ir.Operator.node) -> Ir.Operator.kind_name n.kind)
      (Frontends.Lindi.finish ~name:"out" twice).Ir.Operator.nodes
  in
  Alcotest.(check (list string)) "two scans, two selects"
    [ "INPUT"; "SELECT"; "INPUT"; "SELECT"; "UNION" ] kinds

let test_lindi_iterate () =
  let q =
    Frontends.Lindi.iterate ~carrying:[ "acc" ] ~iterations:4
      [ ("acc", Frontends.Lindi.read "seed") ]
      (fun ref_ ->
         [ ("acc",
            Frontends.Lindi.map ~target:"v"
              Expr.(col "v" + int 10)
              (ref_ "acc")) ])
  in
  let g = Frontends.Lindi.finish ~name:"final" q in
  let out = last_output g [ ("seed", kv_table [ (1, 0) ]) ] in
  Alcotest.(check int) "4 iterations of +10" 40
    (Value.to_int (Table.get out 0 "v"))

let test_lindi_equivalent_to_beer () =
  let beer =
    Frontends.Beer.parse
      "out = SELECT k, v FROM r WHERE v > 50;\nOUTPUT out;\n"
  in
  let lindi =
    Frontends.Lindi.finish ~name:"out"
      (Frontends.Lindi.read "r"
       |> Frontends.Lindi.where Expr.(col "v" > int 50)
       |> Frontends.Lindi.select [ "k"; "v" ])
  in
  let bindings = [ ("r", kv_table purchases_rows) ] in
  Alcotest.(check bool) "lindi = beer" true
    (Table.equal_unordered
       (last_output beer bindings)
       (last_output lindi bindings))

(* ---------------- properties ---------------- *)

let prop_beer_select_equals_kernel =
  QCheck.Test.make ~name:"BEER WHERE = kernel select" ~count:50
    (QCheck.int_range 0 300) (fun threshold ->
      let rows = List.init 80 (fun i -> (i mod 8, i * 7 mod 400)) in
      let src =
        Printf.sprintf
          "out = SELECT k, v FROM r WHERE v > %d;\nOUTPUT out;\n" threshold
      in
      let g = Frontends.Beer.parse src in
      let t = kv_table rows in
      Table.equal_unordered
        (last_output g [ ("r", t) ])
        (Kernel.select t Expr.(col "v" > int threshold)))

let prop_gas_iterations_reflected =
  QCheck.Test.make ~name:"GAS iteration bound round-trips" ~count:20
    (QCheck.int_range 1 30) (fun n ->
      let p =
        Frontends.Gas.parse (Workloads.Workflows.pagerank_gas_source ~iterations:n)
      in
      p.Frontends.Gas.iterations = n)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_beer_select_equals_kernel; prop_gas_iterations_reflected ]

let () =
  Alcotest.run "frontends"
    [ ( "lexer",
        [ Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "hash in string" `Quick
            test_lexer_hash_inside_string;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
          Alcotest.test_case "error" `Quick test_lexer_error ] );
      ( "expr",
        [ Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "unary/qualified" `Quick
            test_expr_unary_minus_and_qualified ] );
      ( "beer",
        [ Alcotest.test_case "select/group" `Quick test_beer_select_group;
          Alcotest.test_case "rename" `Quick test_beer_rename;
          Alcotest.test_case "join/union/distinct/top" `Quick
            test_beer_join_union_distinct_top;
          Alcotest.test_case "semi/anti join" `Quick test_beer_semi_anti_join;
          Alcotest.test_case "while iteration" `Quick test_beer_while_iteration;
          Alcotest.test_case "loop-carried inference" `Quick
            test_beer_while_loop_carried_inference;
          Alcotest.test_case "parse errors" `Quick test_beer_parse_errors;
          Alcotest.test_case "names bound twice" `Quick test_rebinding ] );
      ( "hive",
        [ Alcotest.test_case "listing 1" `Quick test_hive_listing1;
          Alcotest.test_case "where/setops" `Quick test_hive_where_and_setops;
          Alcotest.test_case "having" `Quick test_hive_having;
          Alcotest.test_case "parse errors" `Quick test_hive_parse_errors;
          Alcotest.test_case "beer equivalence" `Quick
            test_beer_hive_equivalence ] );
      ( "gas",
        [ Alcotest.test_case "parse listing 2" `Quick test_gas_parse_listing2;
          Alcotest.test_case "pagerank semantics" `Quick
            test_gas_pagerank_semantics;
          Alcotest.test_case "dangling vertex" `Quick
            test_gas_dangling_vertex_gets_base_rank;
          Alcotest.test_case "errors" `Quick test_gas_errors ] );
      ( "pig",
        [ Alcotest.test_case "aggregation idiom" `Quick
            test_pig_aggregation_idiom;
          Alcotest.test_case "foreach generate" `Quick
            test_pig_foreach_generate;
          Alcotest.test_case "join/order/limit" `Quick
            test_pig_join_order_limit;
          Alcotest.test_case "errors" `Quick test_pig_errors ] );
      ( "lindi",
        [ Alcotest.test_case "pipeline" `Quick test_lindi_pipeline;
          Alcotest.test_case "shared subquery" `Quick
            test_lindi_shared_subquery;
          Alcotest.test_case "iterate" `Quick test_lindi_iterate;
          Alcotest.test_case "left outer join" `Quick
            test_lindi_left_outer_join;
          Alcotest.test_case "beer equivalence" `Quick
            test_lindi_equivalent_to_beer ] );
      ("properties", qcheck_cases) ]
