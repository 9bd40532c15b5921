(* Unit and property tests for the relation substrate: values, schemas,
   expressions, tables and the relational kernels. *)

open Relation

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_float f = Value.Float f

let schema_ab =
  Schema.make [ { Schema.name = "a"; ty = Value.Tint };
                { Schema.name = "b"; ty = Value.Tstring } ]

let table_ab rows =
  Table.create schema_ab
    (List.map (fun (a, b) -> [| v_int a; v_str b |]) rows)

let check_rows msg expected table =
  Alcotest.(check int) (msg ^ " row count") expected (Table.row_count table)

(* ---------------- Value ---------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int eq" true (Value.equal (v_int 3) (v_int 3));
  Alcotest.(check bool) "int/float numeric" true
    (Value.equal (v_int 3) (v_float 3.0));
  Alcotest.(check bool) "lt" true (Value.compare (v_int 2) (v_float 2.5) < 0);
  Alcotest.(check bool) "str" true (Value.compare (v_str "a") (v_str "b") < 0)

let test_value_roundtrip () =
  List.iter
    (fun (ty, s) ->
       let v = Value.parse ty s in
       Alcotest.(check string) "roundtrip" s (Value.to_string v))
    [ (Value.Tint, "42"); (Value.Tstring, "hello"); (Value.Tbool, "true") ]

let test_value_parse_errors () =
  Alcotest.check_raises "bad int" (Invalid_argument "Value.parse int: \"xy\"")
    (fun () -> ignore (Value.parse Value.Tint "xy"))

(* ---------------- Schema ---------------- *)

let test_schema_basics () =
  Alcotest.(check int) "arity" 2 (Schema.arity schema_ab);
  Alcotest.(check int) "index" 1 (Schema.index_of schema_ab "b");
  Alcotest.(check bool) "mem" true (Schema.mem schema_ab "a");
  Alcotest.(check bool) "not mem" false (Schema.mem schema_ab "z")

let test_schema_duplicate () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema.make: duplicate column \"a\"") (fun () ->
      ignore
        (Schema.make
           [ { Schema.name = "a"; ty = Value.Tint };
             { Schema.name = "a"; ty = Value.Tint } ]))

let test_schema_concat_clash () =
  let s = Schema.concat schema_ab schema_ab in
  Alcotest.(check (list string)) "renamed"
    [ "a"; "b"; "r_a"; "r_b" ] (Schema.column_names s)

let test_schema_restrict () =
  let s = Schema.restrict schema_ab [ "b" ] in
  Alcotest.(check (list string)) "restricted" [ "b" ] (Schema.column_names s)

(* ---------------- Expr ---------------- *)

let row = [| v_int 10; v_str "x" |]

let test_expr_eval () =
  let open Expr in
  let e = col "a" + int 5 in
  Alcotest.(check bool) "arith" true
    (Value.equal (eval schema_ab row e) (v_int 15));
  let p = col "a" > int 3 && col "b" = str "x" in
  Alcotest.(check bool) "pred" true (eval_bool schema_ab row p)

let test_expr_types () =
  let open Expr in
  Alcotest.(check bool) "int+int:int" true
    (Stdlib.( = ) (infer schema_ab (col "a" + int 1)) Value.Tint);
  Alcotest.(check bool) "int+float:float" true
    (Stdlib.( = ) (infer schema_ab (col "a" + float 1.)) Value.Tfloat);
  Alcotest.(check bool) "cmp:bool" true
    (Stdlib.( = ) (infer schema_ab (col "a" < int 3)) Value.Tbool);
  Alcotest.check_raises "str+int"
    (Expr.Type_error "arithmetic on string and int") (fun () ->
      ignore (infer schema_ab (col "b" + int 1)))

let test_expr_unknown_column () =
  (try
     ignore (Expr.infer schema_ab (Expr.col "zz"));
     Alcotest.fail "no error"
   with Expr.Type_error _ -> ())

let test_expr_div_by_zero_float () =
  let open Expr in
  let e = float 1. / float 0. in
  Alcotest.(check bool) "float div0 = 0" true
    (Value.equal (eval schema_ab row e) (v_float 0.))

let test_expr_if () =
  let open Expr in
  let e = If (col "a" > int 5, str "big", str "small") in
  Alcotest.(check string) "if" "big"
    (Value.to_string (eval schema_ab row e))

let test_expr_columns () =
  let open Expr in
  let e = col "a" + col "b" + col "a" in
  Alcotest.(check (list string)) "columns dedup" [ "a"; "b" ] (columns e)

(* ---------------- Table ---------------- *)

let test_table_create_checks () =
  Alcotest.check_raises "arity"
    (Invalid_argument
       "Table.create: row 0 has arity 1, schema (a:int, b:string)")
    (fun () -> ignore (Table.create schema_ab [ [| v_int 1 |] ]))

let test_table_csv_roundtrip () =
  let t = table_ab [ (1, "x"); (2, "y"); (3, "z") ] in
  let t' = Table.of_csv schema_ab (Table.to_csv t) in
  Alcotest.(check bool) "roundtrip" true (Table.equal_unordered t t')

let test_table_equal_unordered () =
  let t1 = table_ab [ (1, "x"); (2, "y") ]
  and t2 = table_ab [ (2, "y"); (1, "x") ]
  and t3 = table_ab [ (1, "x"); (1, "x") ] in
  Alcotest.(check bool) "perm equal" true (Table.equal_unordered t1 t2);
  Alcotest.(check bool) "multiset differs" false (Table.equal_unordered t1 t3)

let test_table_sort () =
  let t = table_ab [ (3, "c"); (1, "a"); (2, "b") ] in
  let sorted = Table.sort_by t [ "a" ] in
  Alcotest.(check string) "first row" "a"
    (Value.to_string (Table.get sorted 0 "b"));
  (* duplicate keys with b increasing in row order, so stability is
     visible; the columnar and row sorts agree byte for byte *)
  let n = 5000 in
  let t =
    table_ab (List.init n (fun i -> (i mod 7, Printf.sprintf "%05d" i)))
  in
  List.iter
    (fun descending ->
       let sorted columnar =
         Column.with_enabled columnar (fun () ->
             Table.sort_by ~descending t [ "a" ])
       in
       let rows = Table.rows (sorted true) in
       for i = 1 to Array.length rows - 1 do
         if Value.compare rows.(i - 1).(0) rows.(i).(0) = 0 then
           Alcotest.(check bool)
             "stable: original order within equal keys" true
             (Value.compare rows.(i - 1).(1) rows.(i).(1) < 0)
       done;
       Alcotest.(check string)
         "columnar sort = row sort"
         (Table.to_csv (sorted false)) (Table.to_csv (sorted true)))
    [ false; true ]

(* ---------------- Kernel ---------------- *)

let test_select () =
  let t = table_ab [ (1, "x"); (5, "y"); (9, "z") ] in
  let out = Kernel.select t Expr.(col "a" >= int 5) in
  check_rows "select" 2 out

let test_project () =
  let t = table_ab [ (1, "x") ] in
  let out = Kernel.project t [ "b" ] in
  Alcotest.(check (list string)) "schema" [ "b" ]
    (Schema.column_names (Table.schema out))

let test_map_column_append_and_replace () =
  let t = table_ab [ (2, "x") ] in
  let appended =
    Kernel.map_column t ~target:"c" ~expr:Expr.(col "a" * int 3)
  in
  Alcotest.(check int) "appended value" 6
    (Value.to_int (Table.get appended 0 "c"));
  let replaced =
    Kernel.map_column t ~target:"a" ~expr:Expr.(col "a" * int 3)
  in
  Alcotest.(check int) "replaced value" 6
    (Value.to_int (Table.get replaced 0 "a"));
  Alcotest.(check int) "arity unchanged" 2
    (Schema.arity (Table.schema replaced))

let prices_schema =
  Schema.make [ { Schema.name = "id"; ty = Value.Tint };
                { Schema.name = "price"; ty = Value.Tint } ]

let test_join () =
  let left = table_ab [ (1, "king st"); (2, "queen st"); (3, "mill rd") ] in
  let right =
    Table.create prices_schema
      [ [| v_int 1; v_int 100 |]; [| v_int 1; v_int 150 |];
        [| v_int 3; v_int 70 |]; [| v_int 9; v_int 1 |] ]
  in
  let out = Kernel.join left right ~left_key:"a" ~right_key:"id" in
  check_rows "join" 3 out;
  Alcotest.(check (list string)) "join schema" [ "a"; "b"; "price" ]
    (Schema.column_names (Table.schema out))

let test_join_key_dropped_once () =
  (* self-join where a kept right column name clashes with the left *)
  let out =
    Kernel.join (table_ab [ (1, "x") ]) (table_ab [ (1, "y") ]) ~left_key:"a"
      ~right_key:"a"
  in
  Alcotest.(check (list string)) "clash renamed" [ "a"; "b"; "r_b" ]
    (Schema.column_names (Table.schema out))

let test_left_outer_join () =
  let left = table_ab [ (1, "x"); (2, "y"); (9, "z") ] in
  let right =
    Table.create prices_schema
      [ [| v_int 1; v_int 100 |]; [| v_int 2; v_int 150 |] ]
  in
  let out =
    Kernel.left_outer_join left right ~left_key:"a" ~right_key:"id"
      ~defaults:[ v_int 0 ]
  in
  check_rows "all left rows kept" 3 out;
  let sorted = Table.sort_by out [ "a" ] in
  Alcotest.(check int) "unmatched gets default" 0
    (Value.to_int (Table.get sorted 2 "price"));
  Alcotest.check_raises "default arity"
    (Invalid_argument
       "Kernel.left_outer_join: 2 defaults for 1 right columns") (fun () ->
      ignore
        (Kernel.left_outer_join left right ~left_key:"a" ~right_key:"id"
           ~defaults:[ v_int 0; v_int 0 ]));
  (try
     ignore
       (Kernel.left_outer_join left right ~left_key:"a" ~right_key:"id"
          ~defaults:[ v_str "oops" ]);
     Alcotest.fail "expected type error"
   with Invalid_argument _ -> ())

let test_semi_anti_join () =
  let left = table_ab [ (1, "x"); (2, "y"); (9, "z") ] in
  let right =
    Table.create prices_schema
      [ [| v_int 1; v_int 100 |]; [| v_int 1; v_int 150 |] ]
  in
  let semi = Kernel.semi_join left right ~left_key:"a" ~right_key:"id" in
  check_rows "semi keeps matches once" 1 semi;
  Alcotest.(check (list string)) "semi keeps left schema" [ "a"; "b" ]
    (Schema.column_names (Table.schema semi));
  let anti = Kernel.anti_join left right ~left_key:"a" ~right_key:"id" in
  check_rows "anti keeps the rest" 2 anti;
  (* semi + anti partition the left side *)
  Alcotest.(check int) "partition" (Table.row_count left)
    (Table.row_count semi + Table.row_count anti)

let test_cross_join () =
  let out =
    Kernel.cross_join (table_ab [ (1, "x"); (2, "y") ]) (table_ab [ (3, "z") ])
  in
  check_rows "cross" 2 out;
  Alcotest.(check int) "arity" 4 (Schema.arity (Table.schema out))

let test_set_operators () =
  let t1 = table_ab [ (1, "x"); (2, "y"); (2, "y") ]
  and t2 = table_ab [ (2, "y"); (3, "z") ] in
  check_rows "union_all" 5 (Kernel.union_all t1 t2);
  check_rows "union" 3 (Kernel.union t1 t2);
  check_rows "intersect" 1 (Kernel.intersect t1 t2);
  check_rows "difference" 1 (Kernel.difference t1 t2);
  check_rows "distinct" 2 (Kernel.distinct t1)

let test_set_operator_schema_mismatch () =
  let other = Table.create prices_schema [ [| v_int 1; v_int 2 |] ] in
  (try
     ignore (Kernel.union_all (table_ab [ (1, "x") ]) other);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_group_by () =
  let t = table_ab [ (1, "x"); (1, "y"); (2, "z") ] in
  let out =
    Kernel.group_by t ~keys:[ "a" ]
      ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]
  in
  check_rows "groups" 2 out;
  let sorted = Table.sort_by out [ "a" ] in
  Alcotest.(check int) "count of group 1" 2
    (Value.to_int (Table.get sorted 0 "n"))

let test_group_by_aggs () =
  let schema =
    Schema.make [ { Schema.name = "k"; ty = Value.Tstring };
                  { Schema.name = "v"; ty = Value.Tint } ]
  in
  let t =
    Table.create schema
      [ [| v_str "a"; v_int 1 |]; [| v_str "a"; v_int 5 |];
        [| v_str "b"; v_int 10 |] ]
  in
  let out =
    Kernel.group_by t ~keys:[ "k" ]
      ~aggs:
        [ Aggregate.make (Aggregate.Sum "v") ~as_name:"sum";
          Aggregate.make (Aggregate.Min "v") ~as_name:"min";
          Aggregate.make (Aggregate.Max "v") ~as_name:"max";
          Aggregate.make (Aggregate.Avg "v") ~as_name:"avg" ]
  in
  let sorted = Table.sort_by out [ "k" ] in
  Alcotest.(check int) "sum a" 6 (Value.to_int (Table.get sorted 0 "sum"));
  Alcotest.(check int) "min a" 1 (Value.to_int (Table.get sorted 0 "min"));
  Alcotest.(check int) "max a" 5 (Value.to_int (Table.get sorted 0 "max"));
  Alcotest.(check (float 1e-9)) "avg a" 3.0
    (Value.to_float (Table.get sorted 0 "avg"))

let test_global_agg_empty () =
  let out =
    Kernel.group_by (table_ab []) ~keys:[]
      ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]
  in
  check_rows "one row" 1 out;
  Alcotest.(check int) "count 0" 0 (Value.to_int (Table.get out 0 "n"))

let test_top_k () =
  let t = table_ab [ (5, "e"); (1, "a"); (9, "i"); (3, "c") ] in
  let out = Kernel.top_k t ~by:"a" ~descending:true ~k:2 in
  check_rows "top2" 2 out;
  Alcotest.(check int) "largest first" 9 (Value.to_int (Table.get out 0 "a"))

(* ---------------- Aggregate ---------------- *)

let test_aggregate_associativity_flags () =
  Alcotest.(check bool) "sum assoc" true
    (Aggregate.associative (Aggregate.Sum "x"));
  Alcotest.(check bool) "count assoc" true
    (Aggregate.associative Aggregate.Count);
  Alcotest.(check bool) "avg not assoc" false
    (Aggregate.associative (Aggregate.Avg "x"));
  Alcotest.(check bool) "first not assoc" false
    (Aggregate.associative (Aggregate.First "x"))

(* ---------------- printers and sizes ---------------- *)

let test_value_encoded_size () =
  Alcotest.(check int) "int" 8 (Value.encoded_size (v_int 5));
  Alcotest.(check int) "float" 8 (Value.encoded_size (v_float 1.5));
  Alcotest.(check int) "string" 6 (Value.encoded_size (v_str "hello"));
  Alcotest.(check int) "bool" 1 (Value.encoded_size (Value.Bool true))

let test_printers_smoke () =
  let t = table_ab [ (1, "x"); (2, "y"); (3, "z") ] in
  let render pp v = Format.asprintf "%a" pp v in
  Alcotest.(check bool) "table pp" true
    (String.length (render Table.pp t) > 10);
  let sample = render (Table.pp_sample ~n:2) t in
  Alcotest.(check bool) "sample mentions total" true
    (String.length sample > 0
     &&
     let contains hay needle =
       let n = String.length needle in
       let rec go i =
         i + n <= String.length hay
         && (String.sub hay i n = needle || go (i + 1))
       in
       go 0
     in
     contains sample "3 rows");
  Alcotest.(check string) "schema pp" "(a:int, b:string)"
    (Schema.to_string schema_ab);
  Alcotest.(check string) "expr pp" "((a + 1) > 2)"
    Expr.(to_string (col "a" + int 1 > int 2));
  Alcotest.(check string) "agg pp" "SUM(v) AS s"
    (Format.asprintf "%a" Aggregate.pp
       (Aggregate.make (Aggregate.Sum "v") ~as_name:"s"))

let test_schema_with_column () =
  let s = Schema.with_column schema_ab { Schema.name = "c"; ty = Value.Tint } in
  Alcotest.(check (list string)) "appended" [ "a"; "b"; "c" ]
    (Schema.column_names s);
  let s2 =
    Schema.with_column schema_ab { Schema.name = "b"; ty = Value.Tint }
  in
  Alcotest.(check (list string)) "replaced in place" [ "a"; "b" ]
    (Schema.column_names s2);
  Alcotest.(check bool) "type replaced" true
    (Schema.column_type s2 "b" = Value.Tint)

let test_kernel_sample_rename () =
  let t = table_ab (List.init 100 (fun i -> (i, "x"))) in
  let sampled = Kernel.sample t ~fraction:0.3 ~seed:5 in
  Alcotest.(check bool) "sample shrinks" true
    (Table.row_count sampled < 100 && Table.row_count sampled > 5);
  Alcotest.(check bool) "sample deterministic" true
    (Table.equal_unordered sampled (Kernel.sample t ~fraction:0.3 ~seed:5));
  let renamed = Kernel.rename_column t ~from_:"b" ~to_:"label" in
  Alcotest.(check (list string)) "renamed" [ "a"; "label" ]
    (Schema.column_names (Table.schema renamed))

(* ---------------- QCheck properties ---------------- *)

let gen_rows =
  QCheck.list_of_size (QCheck.Gen.int_range 0 60)
    (QCheck.pair QCheck.small_int QCheck.printable_string)

let mk rows = table_ab rows

let prop_select_partition =
  QCheck.Test.make ~name:"select p + select (not p) partitions rows"
    ~count:100 gen_rows (fun rows ->
      let t = mk rows in
      let p = Expr.(col "a" > int 20) in
      let yes = Kernel.select t p and no = Kernel.select t (Expr.not_ p) in
      Table.row_count yes + Table.row_count no = Table.row_count t)

let prop_distinct_idempotent =
  QCheck.Test.make ~name:"distinct is idempotent" ~count:100 gen_rows
    (fun rows ->
      let t = mk rows in
      let d = Kernel.distinct t in
      Table.equal_unordered d (Kernel.distinct d))

let prop_union_all_counts =
  QCheck.Test.make ~name:"union_all adds row counts" ~count:100
    (QCheck.pair gen_rows gen_rows) (fun (r1, r2) ->
      let t1 = mk r1 and t2 = mk r2 in
      Table.row_count (Kernel.union_all t1 t2)
      = Table.row_count t1 + Table.row_count t2)

let prop_intersect_subset =
  QCheck.Test.make ~name:"intersect within both inputs" ~count:100
    (QCheck.pair gen_rows gen_rows) (fun (r1, r2) ->
      let t1 = mk r1 and t2 = mk r2 in
      let i = Kernel.intersect t1 t2 in
      Table.row_count i <= Table.row_count (Kernel.distinct t1)
      && Table.row_count i <= Table.row_count (Kernel.distinct t2))

let prop_difference_disjoint =
  QCheck.Test.make ~name:"difference disjoint from right" ~count:100
    (QCheck.pair gen_rows gen_rows) (fun (r1, r2) ->
      let t1 = mk r1 and t2 = mk r2 in
      let d = Kernel.difference t1 t2 in
      Table.row_count (Kernel.intersect d t2) = 0)

let prop_semi_anti_partition =
  QCheck.Test.make ~name:"semi + anti partition the left side" ~count:80
    (QCheck.pair gen_rows gen_rows) (fun (r1, r2) ->
      let t1 = mk r1 and t2 = mk r2 in
      let semi = Kernel.semi_join t1 t2 ~left_key:"a" ~right_key:"a"
      and anti = Kernel.anti_join t1 t2 ~left_key:"a" ~right_key:"a" in
      Table.equal_unordered t1 (Kernel.union_all semi anti))

let prop_outer_join_covers_left =
  QCheck.Test.make ~name:"outer join keeps every left row" ~count:80
    (QCheck.pair gen_rows gen_rows) (fun (r1, r2) ->
      let t1 = mk r1 and t2 = mk r2 in
      let out =
        Kernel.left_outer_join t1 t2 ~left_key:"a" ~right_key:"a"
          ~defaults:[ Value.Str "none" ]
      in
      Table.row_count out >= Table.row_count t1
      && Table.row_count out
         = Table.row_count (Kernel.join t1 t2 ~left_key:"a" ~right_key:"a")
           + Table.row_count
               (Kernel.anti_join t1 t2 ~left_key:"a" ~right_key:"a"))

let prop_join_symmetric_count =
  QCheck.Test.make ~name:"join row count symmetric" ~count:60
    (QCheck.pair gen_rows gen_rows) (fun (r1, r2) ->
      let t1 = mk r1 and t2 = mk r2 in
      Table.row_count (Kernel.join t1 t2 ~left_key:"a" ~right_key:"a")
      = Table.row_count (Kernel.join t2 t1 ~left_key:"a" ~right_key:"a"))

let prop_group_by_count_total =
  QCheck.Test.make ~name:"group counts sum to row count" ~count:100 gen_rows
    (fun rows ->
      let t = mk rows in
      let g =
        Kernel.group_by t ~keys:[ "a" ]
          ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]
      in
      let total =
        Array.fold_left
          (fun acc grow -> acc + Value.to_int grow.(1))
          0 (Table.rows g)
      in
      total = Table.row_count t)

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrip" ~count:100 gen_rows (fun rows ->
      (* '|' and '\n' are reserved by the CSV encoding *)
      let clean (a, b) =
        (a, String.map (fun c -> if c = '|' || c = '\n' then '_' else c) b)
      in
      let t = mk (List.map clean rows) in
      Table.equal_unordered t (Table.of_csv schema_ab (Table.to_csv t)))

let prop_value_compare_antisymmetric =
  QCheck.Test.make ~name:"value compare antisymmetric" ~count:200
    (QCheck.pair QCheck.small_int QCheck.small_int) (fun (a, b) ->
      let va = v_int a and vb = v_float (float_of_int b) in
      Value.compare va vb = -Value.compare vb va)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_select_partition; prop_distinct_idempotent; prop_union_all_counts;
      prop_intersect_subset; prop_difference_disjoint;
      prop_join_symmetric_count; prop_semi_anti_partition;
      prop_outer_join_covers_left; prop_group_by_count_total;
      prop_csv_roundtrip; prop_value_compare_antisymmetric ]

(* ---------------- top k ---------------- *)

let kv_schema =
  Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                { Schema.name = "v"; ty = Value.Tint } ]

let kv rows =
  Table.create kv_schema
    (List.map (fun (k, v) -> [| v_int k; v_int v |]) rows)

let test_top_k_descending () =
  let t = kv [ (5, 50); (1, 10); (9, 90); (3, 30) ] in
  let top = Kernel.top_k t ~by:"v" ~descending:true ~k:2 in
  Alcotest.(check (list int))
    "largest first" [ 90; 50 ]
    (Array.to_list (Array.map (fun r -> Value.to_int r.(1)) (Table.rows top)));
  let bottom = Kernel.top_k t ~by:"v" ~descending:false ~k:2 in
  Alcotest.(check (list int))
    "smallest first" [ 10; 30 ]
    (Array.to_list
       (Array.map (fun r -> Value.to_int r.(1)) (Table.rows bottom)));
  Alcotest.(check int) "k beyond rows" 4
    (Table.row_count (Kernel.top_k t ~by:"v" ~descending:true ~k:10))

let () =
  Alcotest.run "relation"
    [ ( "value",
        [ Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_value_parse_errors ] );
      ( "schema",
        [ Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicate" `Quick test_schema_duplicate;
          Alcotest.test_case "concat clash" `Quick test_schema_concat_clash;
          Alcotest.test_case "restrict" `Quick test_schema_restrict ] );
      ( "expr",
        [ Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "types" `Quick test_expr_types;
          Alcotest.test_case "unknown column" `Quick test_expr_unknown_column;
          Alcotest.test_case "float div0" `Quick test_expr_div_by_zero_float;
          Alcotest.test_case "if" `Quick test_expr_if;
          Alcotest.test_case "columns" `Quick test_expr_columns ] );
      ( "table",
        [ Alcotest.test_case "create checks" `Quick test_table_create_checks;
          Alcotest.test_case "csv roundtrip" `Quick test_table_csv_roundtrip;
          Alcotest.test_case "equal unordered" `Quick
            test_table_equal_unordered;
          Alcotest.test_case "sort" `Quick test_table_sort ] );
      ( "kernel",
        [ Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "map column" `Quick
            test_map_column_append_and_replace;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join clash" `Quick test_join_key_dropped_once;
          Alcotest.test_case "left outer join" `Quick test_left_outer_join;
          Alcotest.test_case "semi/anti join" `Quick test_semi_anti_join;
          Alcotest.test_case "cross join" `Quick test_cross_join;
          Alcotest.test_case "set operators" `Quick test_set_operators;
          Alcotest.test_case "set schema mismatch" `Quick
            test_set_operator_schema_mismatch;
          Alcotest.test_case "group by count" `Quick test_group_by;
          Alcotest.test_case "group by aggs" `Quick test_group_by_aggs;
          Alcotest.test_case "global agg empty" `Quick test_global_agg_empty;
          Alcotest.test_case "top k" `Quick test_top_k ] );
      ( "printers",
        [ Alcotest.test_case "encoded size" `Quick test_value_encoded_size;
          Alcotest.test_case "printers" `Quick test_printers_smoke;
          Alcotest.test_case "with_column" `Quick test_schema_with_column;
          Alcotest.test_case "sample/rename" `Quick
            test_kernel_sample_rename ] );
      ( "aggregate",
        [ Alcotest.test_case "associativity" `Quick
            test_aggregate_associativity_flags ] );
      ( "parallel",
        [ Alcotest.test_case "top k descending" `Quick
            test_top_k_descending ] );
      ("properties", qcheck_cases) ]
