(* Columnar storage and the vectorized kernels, proven byte-identical
   to the row engine.

   Three layers, mirroring the columnar refactor's contract:

   - round-trip: rows -> columns -> rows is the identity, bit-for-bit —
     including NaN payloads, -0., validity bitmaps and dictionary
     re-encoding (unit cases per type plus a fuzzed property over
     Qcheck_lite.shape_arbitrary table shapes);
   - differential: every vectorized kernel (select / project / map /
     join / group_by / sort, plus fused chains) produces byte-identical
     CSV to the row engine with the columnar gate off;
   - regression: the three kernels that regressed during the columnar
     bring-up (group_by, project, join) are pinned on a checked-in
     4096-row fixture, with a Gc.allocated_bytes bound that fails if
     any of them silently falls back to per-row boxing. *)

open Relation

(* CI overrides the seed for the randomized third run *)
let seed =
  match Option.bind (Sys.getenv_opt "MUSKETEER_TEST_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 424242

(* bit-exact value equality: polymorphic (=) says [Float nan <> Float
   nan], and would also conflate NaN payloads; compare the bits *)
let value_bits_equal a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let opt_bits_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> value_bits_equal a b
  | _ -> false

let check = Alcotest.(check bool)

(* ---- satellite: per-type round-trip units ---- *)

let test_roundtrip_per_type () =
  let cases =
    [ (Value.Tint, [| Value.Int 3; Value.Int (-7); Value.Int 0 |]);
      (Value.Tfloat, [| Value.Float 1.5; Value.Float (-0.25) |]);
      (Value.Tbool, [| Value.Bool true; Value.Bool false; Value.Bool true |]);
      (Value.Tstring, [| Value.Str "a"; Value.Str "b"; Value.Str "a" |]) ]
  in
  List.iter
    (fun (ty, vs) ->
       let c = Column.of_values ty vs in
       check "length" true (Column.length c = Array.length vs);
       check "ty" true (Column.ty c = ty);
       check "all_valid" true (Column.all_valid c);
       let back = Column.to_values c in
       check "roundtrip" true
         (Array.for_all2 value_bits_equal vs back))
    cases

let test_roundtrip_nulls () =
  let vs =
    [| Some (Value.Int 1); None; Some (Value.Int (-2)); None; None |]
  in
  let c = Column.of_options Value.Tint vs in
  check "not all_valid" false (Column.all_valid c);
  check "valid_at 0" true (Column.valid_at c 0);
  check "valid_at 1" false (Column.valid_at c 1);
  check "roundtrip" true
    (Array.for_all2 opt_bits_equal vs (Column.to_options c));
  (* an all-Some option column drops the bitmap entirely *)
  let dense = Column.of_options Value.Tint [| Some (Value.Int 9) |] in
  check "bitmap dropped" true (Column.all_valid dense)

let test_all_nulls_column () =
  List.iter
    (fun ty ->
       let c = Column.of_options ty [| None; None; None |] in
       check "length" true (Column.length c = 3);
       check "none valid" true
         (not (Column.valid_at c 0) && not (Column.valid_at c 1)
          && not (Column.valid_at c 2));
       check "to_options" true
         (Array.for_all Option.is_none (Column.to_options c));
       (match Column.get c 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "get on a null slot must raise"))
    [ Value.Tint; Value.Tfloat; Value.Tbool; Value.Tstring ]

let test_empty_table () =
  let schema =
    Schema.make
      [ { Schema.name = "a"; ty = Value.Tint };
        { Schema.name = "b"; ty = Value.Tstring } ]
  in
  let t = Table.create schema [] in
  let cols = Table.columns t in
  check "two columns" true (Array.length cols = 2);
  check "both empty" true (Array.for_all (fun c -> Column.length c = 0) cols);
  let back = Table.of_columns schema cols in
  check "csv" true (Table.to_csv t = Table.to_csv back);
  check "row count" true (Table.row_count back = 0)

let test_single_row () =
  let schema =
    Schema.make
      [ { Schema.name = "a"; ty = Value.Tint };
        { Schema.name = "b"; ty = Value.Tfloat };
        { Schema.name = "c"; ty = Value.Tstring };
        { Schema.name = "d"; ty = Value.Tbool } ]
  in
  let row =
    [| Value.Int min_int; Value.Float Float.nan; Value.Str ""; Value.Bool true |]
  in
  let t = Table.create_unchecked schema [| row |] in
  let back = Table.of_columns schema (Table.columns t) in
  check "bit-exact" true
    (Array.for_all2 value_bits_equal row (Table.rows back).(0))

let dictionary_size (c : Column.t) =
  match c.data with
  | Column.Dict { dict; _ } -> Some (Array.length dict)
  | _ -> None

let test_all_equal_dict () =
  let c =
    Column.of_values Value.Tstring
      (Array.make 1000 (Value.Str "only-key"))
  in
  check "dict collapses" true (dictionary_size c = Some 1);
  check "decode" true
    (Array.for_all (fun v -> v = Value.Str "only-key") (Column.to_values c));
  (* encoded size charges the string once, not per row *)
  check "size honest" true (Column.encoded_bytes c < 1000 * 9)

let test_mixed_sign_ints () =
  let vs =
    Array.map (fun i -> Value.Int i)
      [| min_int; -1; 0; 1; max_int; -4096; 4096 |]
  in
  let c = Column.of_values Value.Tint vs in
  check "roundtrip" true
    (Array.for_all2 value_bits_equal vs (Column.to_values c))

let test_nan_inf_floats () =
  let payload_nan = Int64.float_of_bits 0x7ff00000deadbeefL in
  let vs =
    Array.map (fun f -> Value.Float f)
      [| Float.nan; payload_nan; Float.infinity; Float.neg_infinity;
         -0.; 0.; Float.min_float; Float.max_float |]
  in
  let c = Column.of_values Value.Tfloat vs in
  check "bit-exact incl. NaN payloads" true
    (Array.for_all2 value_bits_equal vs (Column.to_values c));
  (* -0. must not collapse into 0. *)
  (match Column.get c 4 with
   | Value.Float f ->
     check "-0. sign" true (Int64.bits_of_float f = Int64.bits_of_float (-0.))
   | _ -> Alcotest.fail "expected a float")

let test_gather_shares_dict () =
  let c =
    Column.of_values Value.Tstring
      [| Value.Str "a"; Value.Str "b"; Value.Str "c"; Value.Str "b" |]
  in
  check "full dict" true (dictionary_size c = Some 3);
  (* a gather shares the dictionary whole, and only the entries its
     slots reach are charged: two codes plus "b" once *)
  let g = Column.gather c [| 1; 3 |] in
  check "shared" true (dictionary_size g = Some 3);
  check "values" true
    (Column.to_values g = [| Value.Str "b"; Value.Str "b" |]);
  check "reached entries charged" true
    (Column.encoded_bytes g = (4 * 2) + 2
     && Column.encoded_bytes ~idx:[| 1; 3 |] c = Column.encoded_bytes g);
  (* a null slot holds code 0 but not its value, and the bitmap is not
     charged *)
  let nc =
    Column.of_options Value.Tstring
      [| Some (Value.Str "aaaa"); None; Some (Value.Str "bb") |]
  in
  check "nulls charge no value" true
    (Column.encoded_bytes ~idx:[| 1; 2 |] nc = (4 * 2) + 3
     && Column.encoded_bytes (Column.gather nc [| 1; 2 |]) = (4 * 2) + 3);
  (* duplicated + reordered indices gather in idx order *)
  let g2 = Column.gather c [| 2; 0; 2 |] in
  check "idx order" true
    (Column.to_values g2 = [| Value.Str "c"; Value.Str "a"; Value.Str "c" |])

let test_builder_growth () =
  let b = Column.Builder.create ~capacity:1 Value.Tint in
  for i = 0 to 999 do
    check "length tracks" true (Column.Builder.length b = i);
    Column.Builder.push b (Value.Int (i * i))
  done;
  let c = Column.Builder.to_column b in
  check "built" true
    (Column.to_values c = Array.init 1000 (fun i -> Value.Int (i * i)));
  (* pushing after to_column keeps the first snapshot intact *)
  Column.Builder.push b (Value.Int (-1));
  check "snapshot isolated" true (Column.length c = 1000);
  (match Column.Builder.push b (Value.Str "wrong") with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "type mismatch must raise");
  let nb = Column.Builder.create Value.Tfloat in
  Column.Builder.push_opt nb (Some (Value.Float 1.));
  Column.Builder.push_opt nb None;
  let nc = Column.Builder.to_column nb in
  check "push_opt null" true
    (Column.valid_at nc 0 && not (Column.valid_at nc 1))

let test_compare_at_matches_value_compare () =
  let vs =
    [| Value.Float Float.nan; Value.Float 1.; Value.Float (-0.);
       Value.Float 0.; Value.Float Float.neg_infinity |]
  in
  let c = Column.of_values Value.Tfloat vs in
  let n = Array.length vs in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check "compare_at = Value.compare" true
        (Column.compare_at c i j = Value.compare vs.(i) vs.(j))
    done
  done

(* ---- fuzzed round-trip property ---- *)

let test_prop_table_roundtrip () =
  try
    Qcheck_lite.check ~count:40 ~seed ~name:"rows->columns->rows identity"
      Qcheck_lite.shape_arbitrary (fun sh ->
        let t = Qcheck_lite.table_of_shape sh in
        let cols = Table.columns t in
        let back = Table.of_columns (Table.schema t) cols in
        let a = Table.rows t and b = Table.rows back in
        Array.length a = Array.length b
        && Array.for_all2
             (fun ra rb -> Array.for_all2 value_bits_equal ra rb)
             a b
        && Table.to_csv t = Table.to_csv back)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

let test_prop_column_roundtrip_nulls () =
  try
    Qcheck_lite.check ~count:40 ~seed ~name:"nullable column roundtrip"
      Qcheck_lite.shape_arbitrary (fun sh ->
        let t = Qcheck_lite.table_of_shape sh in
        let rng = Qcheck_lite.Rng.create (sh.Qcheck_lite.sh_seed + 1) in
        let density = sh.Qcheck_lite.sh_null in
        Array.for_all2
          (fun (col : Schema.column) c ->
             let opts =
               Array.map
                 (fun v ->
                    if Qcheck_lite.Rng.float rng < density then None
                    else Some v)
                 (Column.to_values c)
             in
             let rebuilt = Column.of_options col.ty opts in
             Array.for_all2 opt_bits_equal opts (Column.to_options rebuilt))
          (Array.of_list (Schema.columns (Table.schema t)))
          (Table.columns t))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---- satellite: kernel differential property ----

   Reference = the row engine (columnar gate off). The columnar path
   must match its CSV byte-for-byte — including the kernels' deliberate
   fallbacks (float keys, keyless GROUP BY, SUM/AVG over non-numeric
   inputs), which take the row path and are identical by
   construction. *)

let row_reference f = Column.with_enabled false f

let columnar_matches f =
  Table.to_csv (Column.with_enabled true f) = Table.to_csv (row_reference f)

let first_col_of_ty t ty =
  List.find_map
    (fun (c : Schema.column) -> if c.ty = ty then Some c.name else None)
    (Schema.columns (Table.schema t))

let test_prop_kernel_differential () =
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"columnar == row engine"
      Qcheck_lite.shape_arbitrary (fun sh ->
        let t = Qcheck_lite.table_of_shape sh in
        let names =
          List.map (fun (c : Schema.column) -> c.name)
            (Schema.columns (Table.schema t))
        in
        let kernels =
          [ (fun () -> Kernel.select t Expr.(col "k" > int 0));
            (fun () ->
               Kernel.select t Expr.(col "k" >= int (-4) && col "k" < int 8));
            (fun () ->
               Kernel.project t (List.filteri (fun i _ -> i mod 2 = 0) names));
            (fun () ->
               Kernel.map_column t ~target:"m"
                 ~expr:Expr.(col "k" * int 3 - int 1));
            (fun () ->
               (* replace an existing column, and promote int to float *)
               Kernel.map_column t ~target:"k"
                 ~expr:Expr.(col "k" + float 0.5));
            (fun () ->
               Kernel.group_by t ~keys:[ "k" ]
                 ~aggs:
                   [ Aggregate.make (Aggregate.Sum "k") ~as_name:"s";
                     Aggregate.make Aggregate.Count ~as_name:"n";
                     Aggregate.make (Aggregate.Min "k") ~as_name:"lo";
                     Aggregate.make (Aggregate.Max "k") ~as_name:"hi";
                     Aggregate.make (Aggregate.Avg "k") ~as_name:"avg" ]);
            (fun () -> Table.sort_by t names) ]
        in
        let str = first_col_of_ty t Value.Tstring
        and bool = first_col_of_ty t Value.Tbool
        and flt = first_col_of_ty t Value.Tfloat in
        let multi keys =
          (* multi-key GROUP BY: dense codes folded key by key *)
          fun () ->
            Kernel.group_by t ~keys
              ~aggs:
                ([ Aggregate.make (Aggregate.Sum "k") ~as_name:"s";
                   Aggregate.make Aggregate.Count ~as_name:"n";
                   Aggregate.make (Aggregate.Avg "k") ~as_name:"avg";
                   Aggregate.make (Aggregate.Max "k") ~as_name:"hi" ]
                 @ (match str with
                    | Some s ->
                      [ Aggregate.make (Aggregate.Min s) ~as_name:"lo" ]
                    | None -> [])
                 @
                 match flt with
                 | Some f ->
                   [ Aggregate.make (Aggregate.Sum f) ~as_name:"fs";
                     Aggregate.make (Aggregate.First f) ~as_name:"ff" ]
                 | None -> [])
        in
        let multi_keyed =
          (match (str, bool) with
           | Some s, Some b -> [ multi [ s; b ]; multi [ "k"; s; b ] ]
           | _ -> [])
          @ (match str with Some s -> [ multi [ "k"; s ] ] | None -> [])
          @ (match bool with Some b -> [ multi [ b; "k" ] ] | None -> [])
          (* a float key anywhere in the list: row fallback, identical *)
          @ match flt with Some f -> [ multi [ "k"; f ] ] | None -> []
        in
        let typed =
          (* type-dependent kernels, when the shape has such a column *)
          (match str with
           | Some s ->
             [ (fun () -> Kernel.select t Expr.(col s = str "s0"));
               (fun () ->
                  Kernel.group_by t ~keys:[ s ]
                    ~aggs:
                      [ Aggregate.make Aggregate.Count ~as_name:"n";
                        Aggregate.make (Aggregate.First "k") ~as_name:"f" ]) ]
           | None -> [])
          @ (match first_col_of_ty t Value.Tbool with
             | Some b -> [ (fun () -> Kernel.select t Expr.(col b)) ]
             | None -> [])
          @
          match first_col_of_ty t Value.Tfloat with
          | Some f ->
            [ (fun () ->
                Kernel.map_column t ~target:"m2"
                  ~expr:Expr.(col f / float 2.));
              (* float keys: deliberate row fallback, still identical *)
              (fun () ->
                 Kernel.group_by t ~keys:[ f ]
                   ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]) ]
          | None -> []
        in
        List.for_all columnar_matches (kernels @ typed @ multi_keyed));
    (* the (k, v) edge tables: empty, one row, all-equal keys *)
    Qcheck_lite.check ~count:40 ~seed ~name:"columnar == row engine, edges"
      Qcheck_lite.edge_rows_pair_arbitrary (fun (rows_l, rows_r) ->
        let t = Qcheck_lite.table_of_rows rows_l
        and right = Qcheck_lite.table_of_rows rows_r in
        List.for_all columnar_matches
          [ (fun () -> Kernel.select t Expr.(col "v" > int 50));
            (fun () -> Kernel.project t [ "v" ]);
            (fun () ->
               Kernel.map_column t ~target:"v" ~expr:Expr.(col "v" + int 1));
            (fun () -> Kernel.join t right ~left_key:"k" ~right_key:"k");
            (* a key-only right side: the output schema is the left one *)
            (fun () ->
               Kernel.join t (Kernel.project right [ "k" ]) ~left_key:"k"
                 ~right_key:"k");
            (fun () ->
               Kernel.group_by t ~keys:[ "k" ]
                 ~aggs:
                   Aggregate.
                     [ make (Sum "v") ~as_name:"s"; make Count ~as_name:"n";
                       make (Min "v") ~as_name:"lo";
                       make (Max "v") ~as_name:"hi";
                       make (Avg "v") ~as_name:"m";
                       make (First "v") ~as_name:"f" ]) ])
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* shapes for kernels whose output grows with rows x rows *)
let cap_rows sh =
  { sh with Qcheck_lite.sh_rows = min sh.Qcheck_lite.sh_rows 40 }

let test_prop_join_differential () =
  try
    Qcheck_lite.check ~count:20 ~seed ~name:"columnar join == row join"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape sa
        and b = Qcheck_lite.table_of_shape sb in
        (* [k] has negative values and duplicates on both sides. String
           and bool keys can match nearly all pairs, so those joins run
           on capped shapes *)
        let a' = Qcheck_lite.table_of_shape (cap_rows sa)
        and b' = Qcheck_lite.table_of_shape (cap_rows sb) in
        let same_ty ty =
          match (first_col_of_ty a' ty, first_col_of_ty b' ty) with
          | Some l, Some r ->
            [ (fun () -> Kernel.join a' b' ~left_key:l ~right_key:r);
              (* a filtered left side whose dictionary outlives some of
                 its rows' keys *)
              (fun () ->
                 Kernel.join
                   (Kernel.select a' Expr.(col "k" > int 0))
                   b' ~left_key:l ~right_key:r) ]
          | _ -> []
        in
        List.for_all columnar_matches
          ([ (fun () -> Kernel.join a b ~left_key:"k" ~right_key:"k");
             (fun () -> Kernel.join b a ~left_key:"k" ~right_key:"k");
             (fun () -> Kernel.semi_join a b ~left_key:"k" ~right_key:"k") ]
           @ same_ty Value.Tstring @ same_ty Value.Tbool))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* CROSS on capped shapes (the product is rows x rows), with each side
   also forced empty *)
let test_prop_cross_differential () =
  try
    Qcheck_lite.check ~count:20 ~seed ~name:"columnar cross == row cross"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        let empty sh =
          Qcheck_lite.table_of_shape { sh with Qcheck_lite.sh_rows = 0 }
        in
        List.for_all columnar_matches
          [ (fun () -> Kernel.cross_join a b);
            (fun () -> Kernel.cross_join (empty sa) b);
            (fun () -> Kernel.cross_join a (empty sb)) ])
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* keys at the ends of the int range (the slot-array span overflows
   and the open-addressing table takes over), string keys present on
   one side only, and duplicates on both sides *)
let test_extreme_and_missing_keys () =
  let ints name vs =
    Table.create_unchecked
      (Schema.make
         [ { Schema.name = name; ty = Value.Tint };
           { Schema.name = name ^ "_v"; ty = Value.Tint } ])
      (Array.of_list (List.mapi (fun i v -> [| Value.Int v; Value.Int i |]) vs))
  in
  let l = ints "a" [ max_int; min_int; 0; -1; max_int; 7; min_int ]
  and r = ints "b" [ min_int; 5; max_int; -1; min_int; 0 ] in
  let strs name vs =
    Table.create_unchecked
      (Schema.make
         [ { Schema.name = name; ty = Value.Tstring };
           { Schema.name = "n"; ty = Value.Tint } ])
      (Array.of_list
         (List.mapi (fun i v -> [| Value.Str v; Value.Int i |]) vs))
  in
  let ls = strs "s" [ "x"; "y"; "x"; "only-left"; "y"; "" ]
  and rs = strs "t" [ "y"; "only-right"; "x"; ""; "y"; "missing" ] in
  let cases =
    [ ("int join", fun () -> Kernel.join l r ~left_key:"a" ~right_key:"b");
      ("int join swapped", fun () ->
          Kernel.join r l ~left_key:"b" ~right_key:"a");
      ("string join", fun () -> Kernel.join ls rs ~left_key:"s" ~right_key:"t");
      ("string join swapped", fun () ->
          Kernel.join rs ls ~left_key:"t" ~right_key:"s");
      ("wide group_by", fun () ->
          Kernel.group_by l ~keys:[ "a" ]
            ~aggs:[ Aggregate.make (Aggregate.Sum "a_v") ~as_name:"s" ]);
      ("wide multi-key group_by", fun () ->
          Kernel.group_by (Kernel.join l r ~left_key:"a" ~right_key:"b")
            ~keys:[ "b_v"; "a" ]
            ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]);
      ("cross", fun () -> Kernel.cross_join ls rs) ]
  in
  List.iter
    (fun (name, f) ->
       Alcotest.(check bool) (name ^ " byte-identical") true
         (columnar_matches f))
    cases;
  (* a repeated key is a duplicate output column: both paths reject it *)
  let raises columnar =
    Column.with_enabled columnar (fun () ->
        match Kernel.group_by l ~keys:[ "a"; "a" ] ~aggs:[] with
        | exception Invalid_argument msg -> msg
        | _ -> "no error")
  in
  Alcotest.(check string) "repeated key" (raises false) (raises true)

(* The paper's NetFlix and k-means workflows run their GROUP BY, JOIN and
   CROSS operators entirely on the columnar kernels. *)
let test_zoo_kernels_columnar () =
  let run graph bindings =
    Column.with_enabled true (fun () ->
        ignore
          (Ir.Interp.outputs ~store:(Ir.Interp.store_of_list bindings) graph))
  in
  let counter name = Obs.Metrics.counter Obs.Metrics.default name in
  let kernels = [ "group_by"; "join"; "cross" ] in
  let counts path =
    List.map (fun k -> counter ("kernel." ^ path ^ "." ^ k)) kernels
  in
  let row0 = counts "row" and col0 = counts "columnar" in
  let ratings, movies = Workloads.Datagen.netflix ~movies:1000 () in
  run (Workloads.Workflows.netflix ())
    [ ("ratings", ratings.Workloads.Datagen.table);
      ("movies", movies.Workloads.Datagen.table) ];
  let pts, cents = Workloads.Datagen.kmeans_points ~points:400 ~k:5 () in
  run (Workloads.Workflows.kmeans ~iterations:2 ())
    [ ("points", pts.Workloads.Datagen.table);
      ("centroids", cents.Workloads.Datagen.table) ];
  List.iteri
    (fun i k ->
       Alcotest.(check int) ("kernel.row." ^ k) 0
         (counter ("kernel.row." ^ k) - List.nth row0 i);
       Alcotest.(check bool) ("kernel.columnar." ^ k ^ " > 0") true
         (counter ("kernel.columnar." ^ k) - List.nth col0 i > 0))
    kernels

(* A keyless GROUP BY runs columnar as one group over every row. Over
   empty, one-row and many-row inputs, for every aggregate function
   over every column type it takes, alone and all together, it matches
   the serial row kernel byte for byte, and raises what the row kernel
   raises (MIN, MAX and FIRST of an empty input). *)
let test_keyless_group_by () =
  let outcome f =
    match f () with
    | t -> Ok (Schema.to_string (Table.schema t), Table.to_csv t)
    | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun rows ->
       let t =
         Qcheck_lite.table_of_shape
           { Qcheck_lite.sh_rows = rows;
             sh_extra =
               [ (Value.Tfloat, 50); (Value.Tstring, 10); (Value.Tbool, 2) ];
             sh_null = 0.; sh_seed = seed }
       in
       let fns =
         Aggregate.Count
         :: List.concat_map
              (fun (c : Schema.column) ->
                 (match c.ty with
                  | Value.Tint | Value.Tfloat ->
                    [ Aggregate.Sum c.name; Aggregate.Avg c.name ]
                  | Value.Tstring | Value.Tbool -> [])
                 @ [ Aggregate.Min c.name; Aggregate.Max c.name;
                     Aggregate.First c.name ])
              (Schema.columns (Table.schema t))
       in
       let one fn = [ Aggregate.make fn ~as_name:"a" ] in
       let all =
         List.mapi
           (fun i fn -> Aggregate.make fn ~as_name:(Printf.sprintf "a%d" i))
           fns
       in
       List.iter
         (fun aggs ->
            let what =
              Printf.sprintf "%d rows, %s" rows
                (String.concat ","
                   (List.map
                      (fun (a : Aggregate.t) -> Aggregate.fn_to_string a.fn)
                      aggs))
            in
            let columnar () =
              match
                Column.with_enabled true (fun () ->
                    Columnar.try_group_by t ~keys:[] ~aggs)
              with
              | Some r -> r
              | None -> Alcotest.fail (what ^ ": columnar path refused")
            in
            Alcotest.(check (result (pair string string) string))
              what
              (outcome (fun () -> Kernel.serial_group_by t ~keys:[] ~aggs))
              (outcome columnar))
         (([] :: List.map one fns) @ [ all ]))
    [ 0; 1; 700 ]

(* the sum of every counter whose name starts with [prefix] *)
let sum prefix =
  List.fold_left
    (fun s (name, n) -> if String.starts_with ~prefix name then s + n else s)
    0
    (Obs.Metrics.counters Obs.Metrics.default)

(* Every row-path run of a hot kernel has one counted refusal: over
   planned runs of the NetFlix, k-means, TPC-H and PageRank workflows
   (fused chains included) and a GROUP BY on TPC-H's float price, the
   [kernel.fallback.<reason>] counters sum to the [kernel.row.<kernel>]
   ones. *)
let test_fallbacks_account_for_row_runs () =
  let fallback0 = sum "kernel.fallback." and row0 = sum "kernel.row." in
  let m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes:16) () in
  List.iter
    (fun (name, hdfs, graph) ->
       match Musketeer.execute m ~workflow:name ~hdfs graph with
       | Ok _ -> ()
       | Error e ->
         Alcotest.fail (name ^ ": " ^ Engines.Report.error_to_string e))
    [ ("netflix", Experiments.Common.load_netflix ~movies:8000,
       Workloads.Workflows.netflix ());
      ("kmeans", Experiments.Common.load_kmeans ~points:100_000_000 ~k:100,
       Workloads.Workflows.kmeans ());
      ("tpch", Experiments.Common.load_tpch ~scale_factor:10,
       Workloads.Workflows.tpch_q17 ());
      ("pagerank", Experiments.Common.load_graph Workloads.Datagen.orkut,
       Workloads.Workflows.pagerank_gas ());
      ("by-price", Experiments.Common.load_tpch ~scale_factor:10,
       Frontends.Hive.parse
         "SELECT l_extendedprice, SUM(l_quantity) AS qty FROM lineitem \
          GROUP BY l_extendedprice AS by_price;\n") ];
  let rows = sum "kernel.row." - row0 in
  (* a float GROUP BY key always refuses, so the sums are never 0 = 0 *)
  Alcotest.(check bool) "some row runs" true (rows > 0);
  Alcotest.(check int) "fallbacks = row runs" rows
    (sum "kernel.fallback." - fallback0)

(* fused chains are SELECT/MAP/SELECT/PROJECT kernels over one view:
   run over a plain table and over a filtered view, with the columnar
   path on and off, they are byte-identical to the row engine *)
let test_prop_fused_differential () =
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"view chain == row chain"
      Qcheck_lite.shape_arbitrary (fun sh ->
        let t = Qcheck_lite.table_of_shape sh in
        let chain src () =
          let t = Kernel.select (src ()) Expr.(col "k" > int (-8)) in
          let t =
            Kernel.map_column t ~target:"m" ~expr:Expr.(col "k" * int 2)
          in
          let t = Kernel.select t Expr.(col "m" <= int 16) in
          Kernel.project t [ "k"; "m" ]
        in
        List.for_all
          (fun src ->
             let expect = Table.to_csv (row_reference (chain src)) in
             List.for_all
               (fun columnar ->
                  let got = Column.with_enabled columnar (chain src) in
                  Table.to_csv got = expect)
               [ true; false ])
          [ (fun () -> t); (fun () -> Kernel.select t Expr.(col "k" < int 9)) ])
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---- JOIN → SELECT on the join's matches ----

   [Columnar.try_join_select] against the row oracle: the SELECT of the
   row JOIN, schema and CSV in order, or the same exception. Its pair
   count and per-column bytes are the row JOIN's and the columnar
   JOIN's. It refuses exactly when the fusion cannot hold: a float key
   or a predicate the columnar SELECT refuses. *)

type join_case = {
  key_ty : Value.ty;
  nl : int;
  nr : int;
  card : int;  (* distinct keys per side *)
  shift : int;  (* right keys offset: unmatched rows on both sides *)
  filtered : bool;  (* the left side is a SELECT's view *)
  cseed : int;
}

let join_case_to_string c =
  Printf.sprintf
    "{key=%s; nl=%d; nr=%d; card=%d; shift=%d; filtered=%b; seed=%d}"
    (Value.ty_to_string c.key_ty) c.nl c.nr c.card c.shift c.filtered c.cseed

let gen_join_case rng =
  let open Qcheck_lite in
  let rows () =
    match Rng.int rng 4 with
    | 0 -> 0
    | 1 -> 1 + Rng.int rng 3
    | _ -> 10 + Rng.int rng 140
  in
  { key_ty = Rng.pick rng Value.[ Tint; Tint; Tstring; Tbool; Tfloat ];
    nl = rows (); nr = rows ();
    card = Rng.pick rng [ 1; 3; 20 ];
    shift = Rng.pick rng [ 0; 0; 2 ];
    filtered = Rng.bool rng;
    cseed = Rng.int rng 1_000_000 }

let join_case_arbitrary =
  Qcheck_lite.make
    ~shrink:(fun c ->
      (if c.nl > 0 then [ { c with nl = c.nl / 2 } ] else [])
      @ if c.nr > 0 then [ { c with nr = c.nr / 2 } ] else [])
    ~print:join_case_to_string gen_join_case

(* left (lk, a, x, s, b) and right (rk, c, y, t, a): the right [a]
   clashes and comes out as [r_a]; [c] holds zeros, the floats NaN,
   ±inf and -0., and [s] and [t] are two dictionaries *)
let join_case_tables c =
  let rng = Qcheck_lite.Rng.create c.cseed in
  let int lo hi = lo + Qcheck_lite.Rng.int rng (hi - lo + 1) in
  let key shift =
    let v = Qcheck_lite.Rng.int rng c.card + shift in
    match c.key_ty with
    | Value.Tint -> Value.Int v
    | Value.Tstring -> Value.Str (Printf.sprintf "k%d" v)
    | Value.Tbool -> Value.Bool (v mod 2 = 0)
    | Value.Tfloat -> Value.Float (float_of_int v)
  in
  let float () =
    Value.Float
      (Qcheck_lite.Rng.pick rng
         [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 1.5; -2. ])
  in
  let str n = Value.Str (Printf.sprintf "s%d" (Qcheck_lite.Rng.int rng n)) in
  let table cols n row =
    Table.create_unchecked
      (Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) cols))
      (Array.init n (fun _ -> row ()))
  in
  let l =
    table
      [ ("lk", c.key_ty); ("a", Value.Tint); ("x", Value.Tfloat);
        ("s", Value.Tstring); ("b", Value.Tbool) ]
      c.nl
      (fun () ->
         [| key 0; Value.Int (int (-3) 3); float (); str 4;
            Value.Bool (Qcheck_lite.Rng.bool rng) |])
  and r =
    table
      [ ("rk", c.key_ty); ("c", Value.Tint); ("y", Value.Tfloat);
        ("t", Value.Tstring); ("a", Value.Tint) ]
      c.nr
      (fun () ->
         [| key c.shift; Value.Int (int (-2) 2); float (); str 6;
            Value.Int (int (-3) 3) |])
  in
  let l =
    if c.filtered then
      Column.with_enabled true (fun () ->
          Kernel.select l Expr.(col "a" <> int 0))
    else l
  in
  (l, r)

(* left only, right only, both sides, floats, two dictionaries, bools,
   a division by a zero-holding column, and one the columnar SELECT
   refuses (a division under OR) *)
let join_case_preds =
  Expr.
    [ col "a" > int 0;
      col "c" <= int 1;
      col "a" + col "c" > col "r_a";
      col "x" < col "y";
      col "x" = col "y";
      col "s" = col "t";
      col "s" <> str "s0" && col "b";
      col "a" / col "c" > int 0;
      col "a" > int 0 || col "c" / col "a" > int 0 ]

let test_prop_join_select () =
  let outcome f =
    match f () with
    | t -> Ok (Schema.to_string (Table.schema t), Table.to_csv t)
    | exception e -> Error (Printexc.to_string e)
  in
  try
    Qcheck_lite.check ~count:30 ~seed ~name:"join_select == row select(join)"
      join_case_arbitrary (fun c ->
        let l, r = join_case_tables c in
        let join () = Kernel.join l r ~left_key:"lk" ~right_key:"rk" in
        let row_join = row_reference join in
        let col_join = Column.with_enabled true join in
        let float_key = c.key_ty = Value.Tfloat in
        List.for_all
          (fun pred ->
             let expect =
               outcome (fun () ->
                   row_reference (fun () -> Kernel.select row_join pred))
             in
             let refuse =
               float_key
               || Option.is_none (Vector.compile (Table.schema row_join) pred)
             in
             match
               Column.with_enabled true (fun () ->
                   Columnar.try_join_select l r ~left_key:"lk" ~right_key:"rk"
                     ~pred)
             with
             | exception e ->
               (not refuse) && expect = Error (Printexc.to_string e)
             | None -> refuse
             | Some js ->
               (not refuse)
               && outcome (fun () -> js.table) = expect
               && js.pairs = Table.row_count col_join
               && js.join_bytes = Table.column_bytes col_join
               && js.join_bytes = Table.column_bytes row_join)
          join_case_preds)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---- compiled programs = row evaluation ----

   A vectorizable expression compiled once by [Vector.compile] and run
   over blocks whose length shrinks and grows (so its scratch buffers
   are reused, shrunk and regrown) must give, slot for slot and bit for
   bit, what [Expr.compile] gives on each row, and raise
   [Division_by_zero] exactly when some row does. Each column is read
   [Dense] or through a [Sparse] index longer than the block. A result
   the caller keeps ([Vector.run_kept], as MAP does) must survive a
   later run of the same length. *)

let prog_schema =
  Schema.make
    [ { Schema.name = "i1"; ty = Value.Tint };
      { Schema.name = "i2"; ty = Value.Tint };
      { Schema.name = "f1"; ty = Value.Tfloat };
      { Schema.name = "f2"; ty = Value.Tfloat };
      { Schema.name = "b1"; ty = Value.Tbool };
      { Schema.name = "s1"; ty = Value.Tstring };
      { Schema.name = "s2"; ty = Value.Tstring } ]

let prog_base_rows = 300

let special_floats = [ nan; -0.; 0.; infinity; neg_infinity; 1.5; -2.25; 3. ]

let prog_table seed =
  let rng = Qcheck_lite.Rng.create seed in
  let pick xs = Qcheck_lite.Rng.pick rng xs in
  Table.create_unchecked prog_schema
    (Array.init prog_base_rows (fun _ ->
         [| Value.Int (pick [ 0; 1; -1; 2; 7; -5; 1000; min_int ]);
            Value.Int (pick [ 0; 1; 3; -4; max_int ]);
            Value.Float (pick special_floats);
            Value.Float (pick special_floats);
            Value.Bool (Qcheck_lite.Rng.bool rng);
            Value.Str (pick [ ""; "a"; "b"; "ab" ]);
            Value.Str (pick [ "a"; "b"; "z" ]) |]))

(* a typed expression, reusing earlier subexpressions of its type now
   and then, with constants on either side *)
let gen_prog_expr rng =
  let pick xs = Qcheck_lite.Rng.pick rng xs
  and int = Qcheck_lite.Rng.int rng in
  let pool = Hashtbl.create 8 in
  let rec gen ty depth : Expr.t =
    let reuse = Hashtbl.find_all pool ty in
    let e =
      if reuse <> [] && int 5 = 0 then pick reuse
      else if depth = 0 || int 4 = 0 then leaf ty
      else node ty (depth - 1)
    in
    Hashtbl.add pool ty e;
    e
  and leaf ty =
    match (ty : Value.ty) with
    | Value.Tint ->
      if int 2 = 0 then Expr.col (pick [ "i1"; "i2" ])
      else Expr.int (pick [ 0; 2; -3; 7 ])
    | Value.Tfloat ->
      if int 2 = 0 then Expr.col (pick [ "f1"; "f2" ])
      else Expr.float (pick special_floats)
    | Value.Tbool ->
      if int 2 = 0 then Expr.col "b1" else Expr.bool (Qcheck_lite.Rng.bool rng)
    | Value.Tstring ->
      if int 2 = 0 then Expr.col (pick [ "s1"; "s2" ])
      else Expr.str (pick [ "a"; "-" ])
  and num depth = gen (pick [ Value.Tint; Value.Tfloat ]) depth
  and node ty depth =
    let cond () = Expr.If (gen Value.Tbool depth, gen ty depth, gen ty depth) in
    match ty with
    | Value.Tint ->
      if int 5 = 0 then cond ()
      else
        Expr.Binop
          ( pick
              [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Add; Expr.Sub; Expr.Mul;
                Expr.Div; Expr.Mod ],
            gen Value.Tint depth, gen Value.Tint depth )
    | Value.Tfloat ->
      if int 5 = 0 then cond ()
      else
        let a, b =
          match int 3 with
          | 0 -> (gen Value.Tfloat depth, num depth)
          | 1 -> (num depth, gen Value.Tfloat depth)
          | _ -> (gen Value.Tfloat depth, gen Value.Tfloat depth)
        in
        Expr.Binop
          (pick [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod ], a, b)
    | Value.Tbool -> (
      match int 4 with
      | 0 -> Expr.And (gen Value.Tbool depth, gen Value.Tbool depth)
      | 1 -> Expr.Or (gen Value.Tbool depth, gen Value.Tbool depth)
      | 2 -> Expr.Not (gen Value.Tbool depth)
      | _ ->
        let op =
          pick [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]
        in
        let a, b =
          match int 3 with
          | 0 -> (num depth, num depth)
          | 1 ->
            let ty = pick [ Value.Tbool; Value.Tstring; Value.Tint ] in
            (gen ty depth, gen ty depth)
          | _ -> (gen Value.Tfloat depth, gen Value.Tfloat depth)
        in
        Expr.Cmp (op, a, b))
    | Value.Tstring ->
      if int 3 = 0 then cond ()
      else
        Expr.Binop (Expr.Add, gen Value.Tstring depth, gen Value.Tstring depth)
  in
  gen (pick [ Value.Tint; Value.Tfloat; Value.Tbool; Value.Tstring ]) 4

(* shapes a random expression rarely hits: equal subexpressions whose
   constants differ only in the sign of zero must stay two slots *)
let fixed_prog_exprs =
  Expr.
    [ If (col "b1", col "f1" * float 0., col "f1" * float (-0.));
      If (col "b1", col "f2" + float (-0.), col "f2" + float 0.);
      ((col "f1" - col "f2") * (col "f1" - col "f2")) + (col "f1" - col "f2") ]

let prog_case_arbitrary =
  Qcheck_lite.make
    ~print:(fun (s, e) ->
        Printf.sprintf "table seed %d: %s" s (Expr.to_string e))
    (fun rng ->
       let s = Qcheck_lite.Rng.int rng 1_000_000 in
       if Qcheck_lite.Rng.int rng 10 = 0 then
         (s, Qcheck_lite.Rng.pick rng fixed_prog_exprs)
       else (s, gen_prog_expr rng))

let vec_at (v : Vector.vec) k =
  match v with
  | Vector.VInt a -> Value.Int a.(k)
  | Vector.VFloat a -> Value.Float a.(k)
  | Vector.VBool a -> Value.Bool a.(k)
  | Vector.VStr a -> Value.Str a.(k)
  | Vector.VConst c -> c

let vec_length (v : Vector.vec) =
  match v with
  | Vector.VInt a -> Some (Array.length a)
  | Vector.VFloat a -> Some (Array.length a)
  | Vector.VBool a -> Some (Array.length a)
  | Vector.VStr a -> Some (Array.length a)
  | Vector.VConst _ -> None

let test_prop_programs () =
  try
    Qcheck_lite.check ~count:300 ~seed ~name:"programs = row evaluation"
      prog_case_arbitrary (fun (tseed, e) ->
        let t = prog_table tseed in
        let cols = Table.columns t and rows = Table.rows t in
        let rng = Qcheck_lite.Rng.create (tseed + 1) in
        let row_eval = Expr.compile prog_schema e in
        match Vector.compile prog_schema e with
        | None -> true (* a refusal runs the row path itself *)
        | Some prog ->
          (* each column Dense or through an index longer than the block *)
          let selections len =
            Array.init (Array.length cols) (fun _ ->
                if Qcheck_lite.Rng.bool rng then Vector.Dense
                else
                  Vector.Sparse
                    (Array.init (len + Qcheck_lite.Rng.int rng 5) (fun _ ->
                         Qcheck_lite.Rng.int rng prog_base_rows)))
          in
          let row_at sels k =
            Array.mapi
              (fun i s ->
                 let r =
                   match s with Vector.Dense -> k | Vector.Sparse ix -> ix.(k)
                 in
                 rows.(r).(i))
              sels
          in
          let expect sels len =
            match List.init len (fun k -> row_eval (row_at sels k)) with
            | vs -> Ok vs
            | exception Division_by_zero -> Error ()
          in
          let agrees ~len expected got =
            match expected, got with
            | Error (), Error () -> true
            | Ok vs, Ok v ->
              (match vec_length v with Some n -> n = len | None -> true)
              && List.for_all2 value_bits_equal vs (List.init len (vec_at v))
            | _ -> false
          in
          let run ~kept sels len =
            let sel i = sels.(i) in
            match
              (if kept then Vector.run_kept else Vector.run) prog cols ~len ~sel
            with
            | v -> Ok v
            | exception Division_by_zero -> Error ()
          in
          List.for_all
            (fun len ->
               let s1 = selections len and s2 = selections len in
               let e1 = expect s1 len and e2 = expect s2 len in
               let kept = run ~kept:true s1 len in
               let ok_kept = agrees ~len e1 kept in
               (* a later run of the same length leaves [kept] alone *)
               let ok_next = agrees ~len e2 (run ~kept:false s2 len) in
               let ok_again = agrees ~len e1 kept in
               let ok_scratch = agrees ~len e1 (run ~kept:false s1 len) in
               ok_kept && ok_next && ok_again && ok_scratch)
            [ 256; 200; 256; 17; 1; 0; 200 ])
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* every refusal counts [kernel.join_select.refused.<reason>] and no
   [kernel.fallback.*]: the plain JOIN the caller runs next counts its
   own path *)
let test_join_select_refusals () =
  let ints name n key =
    Table.create_unchecked
      (Schema.make
         [ { Schema.name = name; ty = Value.Tint };
           { Schema.name = name ^ "_s"; ty = Value.Tstring } ])
      (Array.init n (fun i ->
           [| Value.Int (key i); Value.Str (Printf.sprintf "s%d" i) |]))
  in
  let l = ints "a" 8 (fun i -> i mod 4) and r = ints "b" 4 Fun.id in
  let fl =
    Table.create_unchecked
      (Schema.make [ { Schema.name = "f"; ty = Value.Tfloat } ])
      [| [| Value.Float 1. |] |]
  in
  List.iter
    (fun (reason, columnar, l, r, left_key, right_key, pred) ->
       let name = "kernel.join_select.refused." ^ reason in
       let before = Obs.Metrics.counter Obs.Metrics.default name
       and fallbacks = sum "kernel.fallback." in
       Alcotest.(check bool) (reason ^ ": refused") true
         (Column.with_enabled columnar (fun () ->
              Columnar.try_join_select l r ~left_key ~right_key ~pred)
          = None);
       Alcotest.(check int) (reason ^ ": counted") 1
         (Obs.Metrics.counter Obs.Metrics.default name - before);
       Alcotest.(check int) (reason ^ ": no kernel fallback") fallbacks
         (sum "kernel.fallback."))
    Expr.
      [ ("disabled", false, l, r, "a", "b", col "a" > int 0);
        ("float_key", true, fl, fl, "f", "f", bool true);
        ("key_type_mismatch", true, l, fl, "a", "f", bool true);
        ("not_vectorizable", true, l, r, "a", "b",
         col "a" > int 0 || col "b" / col "a" > int 0);
        ("non_bool_predicate", true, l, r, "a", "b", col "a" + int 1) ]

(* ---- late-materialized views ----

   JOIN and CROSS return views over their inputs' columns; SELECT,
   PROJECT, MAP, GROUP BY and JOIN then read through the views. Every
   chain below starts at a view and must match the row engine byte for
   byte. *)

let first_cols_of_ty t ty =
  List.filter_map
    (fun (c : Schema.column) -> if c.ty = ty then Some c.name else None)
    (Schema.columns (Table.schema t))

(* kernels to run over the view [v ()]: filters (selective ones over
   dictionary columns among them), maps reading one or two indexed
   columns, projections, single- and multi-key GROUP BY, and JOINs with
   the view on either side *)
let view_chains v other =
  let t = v () in
  let strs = first_cols_of_ty t Value.Tstring
  and ints = first_cols_of_ty t Value.Tint
  and floats = first_cols_of_ty t Value.Tfloat
  and bools = first_cols_of_ty t Value.Tbool in
  let count = [ Aggregate.make Aggregate.Count ~as_name:"n" ] in
  let on f = fun () -> f (v ()) in
  [ on (fun t -> Kernel.select t Expr.(col "k" > int 0));
    on (fun t ->
        Kernel.group_by
          (Kernel.select t Expr.(col "k" >= int (-4)))
          ~keys:[ "k" ]
          ~aggs:
            [ Aggregate.make (Aggregate.Sum "k") ~as_name:"s";
              Aggregate.make (Aggregate.Max "k") ~as_name:"hi" ]);
    on (fun t ->
        let t = Kernel.map_column t ~target:"m" ~expr:Expr.(col "k" * int 3) in
        Kernel.project (Kernel.select t Expr.(col "m" < int 9)) [ "m"; "k" ]);
    on (fun t -> Kernel.join t other ~left_key:"k" ~right_key:"k");
    on (fun t -> Kernel.join other t ~left_key:"k" ~right_key:"k") ]
  @ (match ints with
     | a :: b :: _ ->
       [ on (fun t ->
             Kernel.select
               (Kernel.map_column t ~target:"d" ~expr:Expr.(col a - col b))
               Expr.(col a = col b));
         on (fun t -> Kernel.group_by t ~keys:[ a; b ] ~aggs:count) ]
     | _ -> [])
  @ (match floats with
     | a :: b :: _ ->
       [ on (fun t ->
             Kernel.select
               (Kernel.map_column t ~target:"f" ~expr:Expr.(col a * col b))
               Expr.(col a < col b));
         on (fun t ->
             Kernel.group_by t ~keys:[ "k" ]
               ~aggs:[ Aggregate.make (Aggregate.Min a) ~as_name:"lo" ]) ]
     | _ -> [])
  @ List.concat_map
      (fun s ->
         [ (* selective: the dictionary outlives most of its rows *)
           on (fun t -> Kernel.select t Expr.(col s = str "s1"));
           on (fun t ->
               Kernel.project
                 (Kernel.select t Expr.(col s <> str "s3"))
                 [ s; "k" ]);
           on (fun t -> Kernel.group_by t ~keys:[ s; "k" ] ~aggs:count) ])
      (match strs with s :: _ -> [ s ] | [] -> [])
  @
  match bools with
  | b :: _ -> [ on (fun t -> Kernel.group_by t ~keys:[ b; "k" ] ~aggs:count) ]
  | [] -> []

let test_prop_view_chains () =
  try
    Qcheck_lite.check ~count:20 ~seed ~name:"view chains == row engine"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        let empty sh =
          Qcheck_lite.table_of_shape { sh with Qcheck_lite.sh_rows = 0 }
        in
        let same_ty ty =
          match (first_col_of_ty a ty, first_col_of_ty b ty) with
          | Some l, Some r ->
            [ (fun () -> Kernel.join a b ~left_key:l ~right_key:r) ]
          | _ -> []
        in
        let sources =
          [ (fun () -> Kernel.cross_join a b);
            (fun () -> Kernel.cross_join (empty sa) b);
            (fun () -> Kernel.cross_join a (empty sb));
            (fun () -> Kernel.join a b ~left_key:"k" ~right_key:"k");
            (fun () ->
               Kernel.join (Kernel.select a Expr.(col "k" > int (-3))) b
                 ~left_key:"k" ~right_key:"k") ]
          @ same_ty Value.Tstring @ same_ty Value.Tbool
        in
        (* a join partner whose names no view column takes *)
        let dims =
          Table.create_unchecked
            (Schema.make
               [ { Schema.name = "k"; ty = Value.Tint };
                 { Schema.name = "label"; ty = Value.Tstring } ])
            (Array.init 9 (fun i ->
                 [| Value.Int (i - 4);
                    Value.Str (Printf.sprintf "l%d" (i mod 3)) |]))
        in
        List.for_all
          (fun v -> List.for_all columnar_matches (view_chains v dims))
          sources)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* a view or a JOIN's matches: a table not yet gathered *)
let is_lazy t = Table.is_view t || Table.matches t <> None

(* a view's size is counted without gathering it, and equals, column
   by column, the size of its materialization and of the same relation
   the row kernels compute — dictionary values a filter drops included.
   A null-bearing string column read through an index charges the
   values its valid slots hold, as its gathered form does. *)
let test_prop_view_encoded_bytes () =
  try
    Qcheck_lite.check ~count:25 ~seed
      ~name:"view bytes == materialized bytes == row bytes"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        let views =
          [ (fun () -> Kernel.cross_join a b);
            (fun () -> Kernel.join a b ~left_key:"k" ~right_key:"k");
            (fun () ->
               Kernel.select (Kernel.cross_join a b) Expr.(col "k" = int 1));
            (fun () ->
               Kernel.select (Kernel.cross_join a b) Expr.(col "r_k" > int 2))
          ]
          @ List.map
              (fun s () ->
                 Kernel.select
                   (Kernel.join b a ~left_key:"k" ~right_key:"k")
                   Expr.(col s = str "s2"))
              (first_cols_of_ty b Value.Tstring)
        in
        let nullable_ok =
          let rng = Qcheck_lite.Rng.create sa.Qcheck_lite.sh_seed in
          let n = Table.row_count a in
          let vs =
            Array.init n (fun _ ->
                if Qcheck_lite.Rng.int rng 10 < int_of_float (10. *. sa.sh_null)
                then None
                else
                  Some
                    (Value.Str
                       (Printf.sprintf "v%d" (Qcheck_lite.Rng.int rng 12))))
          in
          let c = Column.of_options Value.Tstring vs in
          let idx =
            Array.of_list
              (List.filter (fun i -> i mod 3 <> 1) (List.init n Fun.id))
          in
          let present =
            List.sort_uniq compare
              (List.filter_map (fun i -> vs.(i)) (Array.to_list idx))
          in
          let expect =
            List.fold_left
              (fun acc v -> acc + String.length (Value.to_string v) + 1)
              (4 * Array.length idx) present
          in
          Column.encoded_bytes ~idx c = expect
          && Column.encoded_bytes (Column.gather c idx) = expect
        in
        nullable_ok
        && List.for_all
             (fun v ->
                let t = Column.with_enabled true v in
                let viewed = is_lazy t || Table.row_count t = 0 in
                let bytes = Table.column_bytes t in
                let still_view = is_lazy t || Table.row_count t = 0 in
                let materialized =
                  Table.of_columns (Table.schema t) (Table.columns t)
                in
                let rows = row_reference v in
                viewed && still_view
                && bytes = Table.column_bytes materialized
                && bytes = Table.column_bytes rows
                && Table.encoded_bytes t = Table.encoded_bytes rows)
             views)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* Kernels over views give the sizes eager execution gives: a chain run
   lazily has, column by column, the encoded bytes of the same chain
   with every kernel's output materialized before the next one runs,
   and of the chain run on the row kernels — consecutive selective
   filters over dictionary columns included, each dropping some
   dictionary values. *)
let test_prop_lazy_sizes_are_eager () =
  let force t = Table.of_columns (Table.schema t) (Table.columns t) in
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"lazy sizes == eager sizes"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        (* each filter drops a share of the rows and of the distinct
           strings *)
        let filters =
          List.map
            (fun c t -> Kernel.select t Expr.(col "k" > int c))
            [ -6; -2; 2; 6 ]
          @ List.map
              (fun s t -> Kernel.select t Expr.(col s <> str "s1"))
              (first_cols_of_ty a Value.Tstring)
        in
        let chains =
          [ [ (fun t -> Kernel.join t b ~left_key:"k" ~right_key:"k") ]
            @ filters
            @ [ (fun t -> Kernel.select t Expr.(col "k" > int (-5)));
                (fun t ->
                   Kernel.map_column t ~target:"m"
                     ~expr:Expr.(col "k" + int 1)) ];
            [ (fun t -> Kernel.cross_join t b);
              (fun t -> Kernel.select t Expr.(col "r_k" > int 2)) ]
            @ filters
            @ [ (fun t -> Kernel.group_by t ~keys:[ "k" ]
                    ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]) ];
            (* the right side's strings thinned too, then projected *)
            [ (fun t -> Kernel.join b t ~left_key:"k" ~right_key:"k") ]
            @ List.map
                (fun s t -> Kernel.select t Expr.(col s = str "s2"))
                (first_cols_of_ty b Value.Tstring)
            @ [ (fun t ->
                  Kernel.project t
                    (List.map
                       (fun (c : Schema.column) -> c.name)
                       (List.filteri
                          (fun i _ -> i mod 2 = 0)
                          (Schema.columns (Table.schema t))))) ] ]
        in
        List.for_all
          (fun chain ->
             let run f () = List.fold_left (fun t k -> f (k t)) a chain in
             let lazy_ = Column.with_enabled true (run Fun.id)
             and eager = Column.with_enabled true (run force)
             and rows = row_reference (run Fun.id) in
             Table.column_bytes lazy_ = Table.column_bytes eager
             && Table.column_bytes lazy_ = Table.column_bytes rows
             && Table.to_csv lazy_ = Table.to_csv eager
             && Table.to_csv lazy_ = Table.to_csv rows)
          chains)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* The words a table holds beyond its dictionaries: for a JOIN's
   matches, one per bucket entry, probe code and index entry, and one
   per entry of each distinct base column; otherwise, read off
   [Table.parts] (which never gathers), one per row-aligned column
   entry and index entry, and one per entry of each distinct base
   column it reads through an index. Its materialized form holds
   arity x rows. *)
let distinct_base_words cols =
  List.fold_left
    (fun s c -> s + Column.length c)
    0
    (List.fold_left (fun acc c -> if List.memq c acc then acc else c :: acc) [] cols)

let words t =
  match Table.matches t with
  | Some m ->
    let idx (v : Table.view) =
      Array.fold_left (fun s ix -> s + Array.length ix) 0 v.Table.idx
    in
    Array.length m.Table.bstart + Array.length m.brows + Array.length m.pcode
    + Option.fold ~none:0 ~some:Array.length m.pvia
    + idx m.lv + idx m.rv
    + distinct_base_words
        (List.map fst (Array.to_list m.lv.vcols @ Array.to_list m.rv.vcols))
  | None ->
    let v = Table.parts t and n = Table.row_count t in
    let bases, aligned =
      Array.fold_left
        (fun (bases, aligned) (c, g) ->
           if g < 0 then (bases, aligned + n) else (c :: bases, aligned))
        ([], 0) v.Table.vcols
    in
    (Array.length v.Table.idx * n) + aligned + distinct_base_words bases

let materialized_words t = Schema.arity (Table.schema t) * Table.row_count t

(* NetFlix and k-means read every JOIN/CROSS view through SELECT, MAP,
   GROUP BY or JOIN: nothing inside the workflow materializes one. An
   output leaves its job as the kernel made it, and the store keeps
   whichever of its view and its columns is smaller. *)
let test_zoo_views_stay_lazy () =
  let materialized () =
    Obs.Metrics.counter Obs.Metrics.default "kernel.view.materialized"
  in
  let ratings, movies = Workloads.Datagen.netflix ~movies:1000 () in
  let pts, cents = Workloads.Datagen.kmeans_points ~points:400 ~k:5 () in
  List.iter
    (fun (name, graph, bindings) ->
       Column.with_enabled true @@ fun () ->
       let before = materialized () in
       let outputs =
         Ir.Interp.outputs ~store:(Ir.Interp.store_of_list bindings) graph
       in
       Alcotest.(check int) (name ^ ": no view materialized mid-workflow") 0
         (materialized () - before);
       let views = List.filter (fun (_, t) -> Table.is_view t) outputs in
       List.iter (fun (_, t) -> ignore (Table.materialize t)) outputs;
       Alcotest.(check int) (name ^ ": each view output forced once")
         (List.length views) (materialized () - before);
       (* the engine path hands its outputs to HDFS, which stores each
          in its smaller form *)
       let hdfs = Engines.Hdfs.create () in
       List.iter (fun (r, t) -> Engines.Hdfs.put hdfs r t) bindings;
       let r = Engines.Exec_helper.execute ~hdfs graph in
       List.iter
         (fun (out, t, _) ->
            Engines.Hdfs.put hdfs out t;
            let stored = Engines.Hdfs.table hdfs out in
            Alcotest.(check bool)
              (name ^ ": " ^ out ^ " leaves in the smaller form") true
              (words stored <= materialized_words stored))
         r.Engines.Exec_helper.outputs)
    [ ("netflix", Workloads.Workflows.netflix (),
       [ ("ratings", ratings.Workloads.Datagen.table);
         ("movies", movies.Workloads.Datagen.table) ]);
      ("kmeans", Workloads.Workflows.kmeans ~iterations:2 (),
       [ ("points", pts.Workloads.Datagen.table);
         ("centroids", cents.Workloads.Datagen.table) ]) ]

(* a fresh [t ()] stored in HDFS and in the serving layer's shared
   store, and what each reads back. The store keeps one stored form:
   the entry found while its flight leases it is the one the byte
   budget serves after the lease ends. *)
let stored_forms t =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "x" (t ());
  let store = Engines.Share.create ~capacity_mb:64. () in
  let f = Engines.Share.begin_flight store in
  Engines.Share.with_flight store f (fun () ->
      Engines.Share.publish store ~key:"p" ~inputs:[] ~mb:1. (t ()));
  let find what =
    match Engines.Share.find store ~key:"p" with
    | Some (s, _) -> s
    | None -> Alcotest.fail ("published subplan not found " ^ what)
  in
  let leased = find "while leased" in
  Engines.Share.end_flight store f;
  Alcotest.(check bool) "the budget serves the leased entry's table" true
    (find "in the budget" == leased);
  [ ("HDFS entry", Engines.Hdfs.table hdfs "x"); ("store entry", leased) ]

(* The stores that outlive a job keep the smaller form: a CROSS view
   or a JOIN's matches over small bases hold fewer words than they
   would gather, so they stay as they are, reading back as their
   materialization does; a SELECT that keeps a few rows of a large base
   would pin the whole base, so it is gathered. *)
let test_stores_keep_smaller_form () =
  Column.with_enabled true @@ fun () ->
  let t =
    Qcheck_lite.table_of_shape
      { Qcheck_lite.sh_rows = 30;
        sh_extra = [ (Value.Tstring, 10); (Value.Tint, 2) ];
        sh_null = 0.; sh_seed = 7 }
  in
  let force v = Table.of_columns (Table.schema v) (Table.columns v) in
  List.iter
    (fun (what, view) ->
       Alcotest.(check bool) (what ^ " is lazy") true (is_lazy (view ()));
       let expect = force (view ()) in
       List.iter
         (fun (store, s) ->
            Alcotest.(check bool) (what ^ ": " ^ store ^ " keeps its form")
              true (is_lazy s);
            Alcotest.(check int) (what ^ ": " ^ store ^ " encoded bytes")
              (Table.encoded_bytes expect) (Table.encoded_bytes s);
            Alcotest.(check string) (what ^ ": " ^ store ^ " reads back")
              (Table.to_csv expect) (Table.to_csv s))
         (stored_forms view))
    [ ("CROSS", fun () -> Kernel.cross_join t (Kernel.project t [ "c0" ]));
      ("self-JOIN", fun () -> Kernel.join t t ~left_key:"c1" ~right_key:"c1")
    ];
  let big =
    Qcheck_lite.table_of_shape
      { Qcheck_lite.sh_rows = 1000;
        sh_extra = [ (Value.Tint, 100); (Value.Tstring, 10) ];
        sh_null = 0.; sh_seed = 7 }
  in
  let few () = Kernel.select big Expr.(col "k" = int 3) in
  Alcotest.(check bool) "selective SELECT is a view" true
    (Table.is_view (few ()));
  List.iter
    (fun (store, s) ->
       Alcotest.(check bool) ("selective SELECT: " ^ store ^ " gathers") false
         (Table.is_view s);
       Alcotest.(check string) ("selective SELECT: " ^ store ^ " reads back")
         (Table.to_csv (few ())) (Table.to_csv s))
    (stored_forms few)

(* Over generated pipelines behind a self-JOIN (every stage a declared
   output, so each leaves its job as the kernel made it), HDFS never
   stores more words than the materialized form holds, and the stored
   form reads back with the materialization's bytes and CSV. *)
let stored_pipeline (spec : Qcheck_lite.workflow_spec) =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~name:"j" ~left_key:"k" ~right_key:"k" r r in
  let m =
    Ir.Builder.map b ~name:"m" ~target:"v"
      ~expr:Relation.Expr.(col "v" - col "r_v") j
  in
  let p = Ir.Builder.project b ~name:"p" ~columns:[ "k"; "v" ] m in
  let last, stages =
    List.fold_left
      (fun (h, acc) op ->
         let name = Printf.sprintf "s%d" (List.length acc) in
         let h = Qcheck_lite.apply_op ~name b h op in
         (h, h :: acc))
      (p, []) spec.Qcheck_lite.ops
  in
  let out =
    Ir.Builder.select b ~name:"out" ~pred:Relation.Expr.(col "k" > int 1) last
  in
  Ir.Builder.finish b ~outputs:([ j; m; p; out ] @ stages)

let test_prop_stored_words () =
  try
    Qcheck_lite.check ~count:30 ~seed
      ~name:"stored words <= materialized words" Qcheck_lite.spec_arbitrary
      (fun spec ->
        Column.with_enabled true @@ fun () ->
        let g = stored_pipeline spec in
        let run () =
          (Engines.Exec_helper.execute ~hdfs:(Qcheck_lite.hdfs_of_spec spec) g)
            .Engines.Exec_helper.outputs
        in
        let hdfs = Engines.Hdfs.create () in
        List.for_all2
          (fun (name, t, _) (_, m, _) ->
             Engines.Hdfs.put hdfs name t;
             let s = Engines.Hdfs.table hdfs name and m = Table.materialize m in
             words s <= materialized_words s
             && Table.encoded_bytes s = Table.encoded_bytes m
             && Table.to_csv s = Table.to_csv m)
          (run ()) (run ()))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* The outputs a workflow run returns are plain tables, one-shot or
   served, even when HDFS stored the output as a JOIN's matches: a
   self-JOIN over a low-cardinality key holds fewer words in its
   matches than it gathers. *)
let test_executor_outputs_not_views () =
  Column.with_enabled true @@ fun () ->
  let stored () =
    Obs.Metrics.counter Obs.Metrics.default "kernel.join.stored"
  in
  let graph () =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r" in
    let j = Ir.Builder.join b ~name:"out" ~left_key:"k" ~right_key:"k" r r in
    Ir.Builder.finish b ~outputs:[ j ]
  in
  let hdfs () =
    Qcheck_lite.hdfs_of_spec
      { Qcheck_lite.rows = List.init 120 (fun i -> (i mod 7, i)); ops = [] }
  in
  let m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes:16) () in
  let check_outputs what outputs =
    Alcotest.(check bool) (what ^ ": outputs returned") true (outputs <> []);
    List.iter
      (fun (rel, t) ->
         Alcotest.(check bool) (what ^ ": " ^ rel ^ " is no view") false
           (is_lazy t))
      outputs
  in
  let before = stored () in
  (match Musketeer.execute m ~workflow:"selfjoin" ~hdfs:(hdfs ()) (graph ()) with
   | Ok (r, _) -> check_outputs "one-shot" r.Musketeer.Executor.outputs
   | Error e -> Alcotest.fail (Engines.Report.error_to_string e));
  Alcotest.(check bool) "one-shot: HDFS stored the output as matches" true
    (stored () > before);
  let before = stored () in
  let outcomes, _ =
    Serve.Service.run m ~hdfs:(hdfs ())
      [ { Serve.Service.tenant = "t"; workflow = "selfjoin"; graph = graph ();
          arrival_s = 0.; slo_s = None } ]
  in
  List.iter
    (fun (o : Serve.Service.outcome) -> check_outputs "served" o.outputs)
    outcomes;
  Alcotest.(check bool) "served: HDFS stored the output as matches" true
    (stored () > before)

let counter name = Obs.Metrics.counter Obs.Metrics.default name

(* ---- a JOIN's matches ----

   Every consumer of a factorized JOIN reads what it would read from
   the JOIN's expanded form: each consumer below gets a fresh JOIN, so
   its first read is the one that expands it. Left and right sides may
   be views (a SELECT) or plain columns, and either may be empty. *)
let test_prop_matches_consumers () =
  let expanded t =
    ignore (Table.parts t);
    t
  in
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"matches consumers = expanded"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        Column.with_enabled true @@ fun () ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        let joins =
          [ (fun () -> Kernel.join a b ~left_key:"k" ~right_key:"k");
            (fun () ->
               Kernel.join
                 (Kernel.select a Expr.(col "k" > int (-3)))
                 b ~left_key:"k" ~right_key:"k");
            (fun () -> Kernel.join b a ~left_key:"k" ~right_key:"k") ]
        in
        let consumers =
          [ ("UNION", fun j -> Kernel.union j (Kernel.select j Expr.(col "k" > int 0)));
            ("DIFFERENCE",
             fun j -> Kernel.difference j (Kernel.select j Expr.(col "k" > int 0)));
            ("SELECT", fun j -> Kernel.select j Expr.(col "k" <> int 1));
            ("DISTINCT", Kernel.distinct);
            ("SORT", fun j -> Table.sort_by j [ "k" ]);
            ("rows", fun j -> Table.create_unchecked (Table.schema j) (Table.rows j));
            ("materialize", Table.materialize);
            ("store", fun j ->
                let hdfs = Engines.Hdfs.create () in
                Engines.Hdfs.put hdfs "j" j;
                Engines.Hdfs.table hdfs "j") ]
        in
        List.for_all
          (fun join ->
             let lazy_ok = Table.matches (join ()) <> None in
             let bytes = Table.column_bytes (join ()) in
             lazy_ok
             && bytes = Table.column_bytes (expanded (join ()))
             && bytes = Table.column_bytes (row_reference join)
             && Table.to_csv (join ()) = Table.to_csv (expanded (join ()))
             && Table.to_csv (join ()) = Table.to_csv (row_reference join)
             && List.for_all
                  (fun (_, f) ->
                     let got = f (join ()) and want = f (expanded (join ())) in
                     Table.to_csv got = Table.to_csv want
                     && Table.column_bytes got = Table.column_bytes want)
                  consumers)
          joins)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* In a one-shot NetFlix run at CLI sizes, the JOINs [pairs] and [cand]
   cross their job boundaries as matches and are grouped in blocks by
   the MAP → GROUP BY kernel, so neither is ever expanded: only [rm],
   which its store gathers, and [pick], which a SELECT reads in the
   next job, are. *)
let test_netflix_matches_never_expand () =
  Column.with_enabled true @@ fun () ->
  let hdfs, graph = (List.assoc "netflix" Experiments.Common.zoo) () in
  let m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes:16) () in
  let expanded0 = counter "kernel.join.expanded"
  and stored0 = counter "kernel.join.stored"
  and fused0 = counter "kernel.columnar.map_group_by" in
  (match Musketeer.execute m ~workflow:"netflix" ~hdfs graph with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Engines.Report.error_to_string e));
  Alcotest.(check int) "JOINs expanded: rm and pick" 2
    (counter "kernel.join.expanded" - expanded0);
  Alcotest.(check int) "JOINs stored as matches: pairs and cand" 2
    (counter "kernel.join.stored" - stored0);
  Alcotest.(check int) "MAP → GROUP BY kernels: prod and scored" 2
    (counter "kernel.columnar.map_group_by" - fused0)

(* A MAP of a bare column takes the column's base and group, as PROJECT
   does: no copy, and the rows the row kernel computes *)
let test_bare_column_map_zero_copy () =
  Column.with_enabled true @@ fun () ->
  let t =
    Qcheck_lite.table_of_shape
      { Qcheck_lite.sh_rows = 50;
        sh_extra = [ (Value.Tstring, 10); (Value.Tfloat, 5) ];
        sh_null = 0.; sh_seed = 3 }
  in
  let view = Kernel.select t Expr.(col "k" > int 0) in
  List.iter
    (fun (what, src, target) ->
       let out = Kernel.map_column src ~target ~expr:(Expr.col "c0") in
       let base v name =
         (Table.parts v).Table.vcols.(Schema.index_of (Table.schema v) name)
       in
       let (c, g) = base out target and (c', g') = base src "c0" in
       Alcotest.(check bool) (what ^ ": same base column") true (c == c');
       Alcotest.(check int) (what ^ ": same group") g' g;
       Alcotest.(check string) (what ^ ": rows = row kernel")
         (Table.to_csv
            (row_reference (fun () ->
                 Kernel.map_column src ~target ~expr:(Expr.col "c0"))))
         (Table.to_csv out))
    [ ("columns", t, "copy"); ("view", view, "copy"); ("view, replacing", view, "c1") ]

(* ---- satellite: 4k-row fixture regression ----

   group_by, project and join regressed during the columnar bring-up
   (closure-per-element inner loops, boxed gathers); this pins them on
   a checked-in fixture, plus an allocation bound that fails if a
   kernel starts boxing per row again. *)

let fixture_schema =
  Schema.make
    [ { Schema.name = "k"; ty = Value.Tint };
      { Schema.name = "v"; ty = Value.Tint };
      { Schema.name = "tag"; ty = Value.Tstring };
      { Schema.name = "x"; ty = Value.Tfloat } ]

let load_fixture () =
  (* [dune runtest] runs in the stanza directory; [dune exec] from the
     repo root — accept either working directory *)
  let path =
    List.find Sys.file_exists
      [ "fixtures/columnar_4k.csv"; "test/fixtures/columnar_4k.csv" ]
  in
  let ic = In_channel.open_text path in
  let data = In_channel.input_all ic in
  In_channel.close ic;
  Table.of_csv fixture_schema data

(* the join's right side: one label row per distinct k *)
let fixture_dims =
  lazy
    (let schema =
       Schema.make
         [ { Schema.name = "k"; ty = Value.Tint };
           { Schema.name = "label"; ty = Value.Tstring } ]
     in
     Table.create_unchecked schema
       (Array.init 97 (fun i ->
            [| Value.Int i; Value.Str (Printf.sprintf "g%d" (i mod 7)) |])))

let fixture_kernels t =
  [ ("group_by", fun () ->
        Kernel.group_by t ~keys:[ "k" ]
          ~aggs:
            [ Aggregate.make (Aggregate.Sum "v") ~as_name:"total";
              Aggregate.make Aggregate.Count ~as_name:"n";
              Aggregate.make (Aggregate.Min "v") ~as_name:"lo";
              Aggregate.make (Aggregate.Avg "v") ~as_name:"avg";
              Aggregate.make (Aggregate.First "tag") ~as_name:"tag" ]);
    (* float SUM and AVG add unboxed: no float is boxed per row *)
    ("group_by float sum", fun () ->
        Kernel.group_by t ~keys:[ "k" ]
          ~aggs:[ Aggregate.make (Aggregate.Sum "x") ~as_name:"s" ]);
    ("group_by float avg", fun () ->
        Kernel.group_by t ~keys:[ "k" ]
          ~aggs:[ Aggregate.make (Aggregate.Avg "x") ~as_name:"a" ]);
    ("project", fun () -> Kernel.project t [ "tag"; "k"; "x" ]);
    ("join", fun () ->
        Kernel.join t (Lazy.force fixture_dims) ~left_key:"k"
          ~right_key:"k") ]

let test_fixture_identity () =
  let t = load_fixture () in
  Alcotest.(check int) "fixture rows" 4096 (Table.row_count t);
  List.iter
    (fun (name, f) ->
       Alcotest.(check bool) (name ^ " columnar byte-identical") true
         (columnar_matches f))
    (fixture_kernels t)

(* Per-row allocation budgets, in bytes per input row. The columnar
   kernels allocate unboxed index/accumulator arrays (measured on this
   fixture: group_by ~8, float SUM and AVG ~0.5, project ~0, join ~72
   B/row; float SUM and AVG took 6.3 and 6.5 B/row while each row's
   addition boxed its operands) where the row
   engine boxes every cell (group_by ~480 B/row). Budgets sit 3-8x
   above the measured columnar cost and far below per-row boxing, so a
   silent fallback to the row path trips them. *)
let alloc_budgets =
  [ ("group_by", 64.); ("group_by float sum", 2.);
    ("group_by float avg", 2.); ("project", 16.); ("join", 256.) ]

let test_fixture_alloc_bound () =
  let t = load_fixture () in
  ignore (Table.columns t);
  ignore (Table.columns (Lazy.force fixture_dims));
  let n = float_of_int (Table.row_count t) in
  List.iter
    (fun (name, f) ->
       let budget = List.assoc name alloc_budgets in
       Column.with_enabled true (fun () ->
           ignore (f ()); (* warm up: one-time lazies out of the way *)
           (* min over repetitions: a single run is noisy (one-off
              hashtable resizes) and flakes *)
           let min_delta = ref infinity in
           for _ = 1 to 5 do
             let before = Gc.allocated_bytes () in
             ignore (Sys.opaque_identity (f ()));
             let delta = Gc.allocated_bytes () -. before in
             if delta < !min_delta then min_delta := delta
           done;
           let per_row = !min_delta /. n in
           Alcotest.(check bool)
             (Printf.sprintf "%s allocates %.1f B/row (budget %.0f)" name
                per_row budget)
             true (per_row <= budget)))
    (fixture_kernels t)

(* ---- satellite: dictionary-aware sizing ---- *)

(* 10k rows with a low-cardinality string column: the dictionary layout
   charges 4-byte codes per row plus each distinct string once, so both
   the stored size and the PROJECT estimate must track that — the
   pre-columnar per-row string sizing overstated [tag] several-fold. *)
let sizing_table =
  lazy
    (let schema =
       Schema.make
         [ { Schema.name = "k"; ty = Value.Tint };
           { Schema.name = "tag"; ty = Value.Tstring };
           { Schema.name = "x"; ty = Value.Tfloat } ]
     in
     Table.create_unchecked schema
       (Array.init 10_000 (fun i ->
            [| Value.Int i;
               Value.Str (Printf.sprintf "label-%d" (i mod 8));
               Value.Float (float_of_int i /. 3.) |])))

let test_encoded_bytes_dictionary () =
  let t = Lazy.force sizing_table in
  let n = 10_000 in
  (* ground truth from the documented layout: 8B ints + 8B floats +
     4B dictionary codes, plus 8 distinct "label-N" strings (7+1 bytes
     each) charged once *)
  let expected = (n * 8) + (n * 8) + (n * 4) + (8 * 8) in
  let actual = Table.encoded_bytes t in
  let err =
    abs_float (float_of_int (actual - expected)) /. float_of_int expected
  in
  Alcotest.(check bool)
    (Printf.sprintf "encoded_bytes %d within 10%% of layout %d" actual
       expected)
    true (err < 0.1)

let test_project_estimate_within_10pct () =
  let t = Lazy.force sizing_table in
  let in_mb = Table.encoded_mb t in
  let project_mb cols =
    Ir.Sizing.project_mb (Table.schema t) (lazy (Table.column_bytes t)) cols
      ~in_mb
  in
  List.iter
    (fun cols ->
       let predicted =
         match project_mb cols with
         | Some mb -> mb
         | None -> Alcotest.fail "all columns are in the schema"
       in
       let actual = Table.encoded_mb (Kernel.project t cols) in
       let err = abs_float (predicted -. actual) /. actual in
       Alcotest.(check bool)
         (Printf.sprintf "project [%s]: predicted %.3f MB, actual %.3f MB"
            (String.concat ";" cols) predicted actual)
         true (err < 0.1))
    [ [ "tag" ]; [ "k"; "x" ]; [ "k"; "tag" ]; [ "x" ] ];
  (* unknown column (e.g. born in a fused MAP): no estimate, caller
     falls back to the generic Sizing default *)
  Alcotest.(check bool)
    "unknown column yields None" true
    (project_mb [ "k"; "made-by-map" ] = None)

let () =
  Alcotest.run "columnar"
    [ ( "roundtrip",
        [ Alcotest.test_case "per-type values" `Quick test_roundtrip_per_type;
          Alcotest.test_case "validity bitmap" `Quick test_roundtrip_nulls;
          Alcotest.test_case "all-nulls column" `Quick test_all_nulls_column;
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "single row" `Quick test_single_row;
          Alcotest.test_case "all-equal dict keys" `Quick test_all_equal_dict;
          Alcotest.test_case "mixed-sign ints" `Quick test_mixed_sign_ints;
          Alcotest.test_case "NaN and infinities" `Quick test_nan_inf_floats;
          Alcotest.test_case "gather shares the dictionary" `Quick
            test_gather_shares_dict;
          Alcotest.test_case "builder growth" `Quick test_builder_growth;
          Alcotest.test_case "compare_at semantics" `Quick
            test_compare_at_matches_value_compare;
          Alcotest.test_case "fuzzed table roundtrip" `Quick
            test_prop_table_roundtrip;
          Alcotest.test_case "fuzzed nullable roundtrip" `Quick
            test_prop_column_roundtrip_nulls ] );
      ( "differential",
        [ Alcotest.test_case "kernels = row kernels" `Quick
            test_prop_kernel_differential;
          Alcotest.test_case "joins = row joins" `Quick
            test_prop_join_differential;
          Alcotest.test_case "cross joins = row cross joins" `Quick
            test_prop_cross_differential;
          Alcotest.test_case "extreme and one-sided keys" `Quick
            test_extreme_and_missing_keys;
          Alcotest.test_case "netflix and k-means stay columnar" `Quick
            test_zoo_kernels_columnar;
          Alcotest.test_case "fallbacks account for row runs" `Quick
            test_fallbacks_account_for_row_runs;
          Alcotest.test_case "keyless GROUP BY = serial kernel" `Quick
            test_keyless_group_by;
          Alcotest.test_case "view chains = row kernels" `Quick
            test_prop_view_chains;
          Alcotest.test_case "view bytes = materialized bytes" `Quick
            test_prop_view_encoded_bytes;
          Alcotest.test_case "lazy sizes = eager sizes" `Quick
            test_prop_lazy_sizes_are_eager;
          Alcotest.test_case "netflix and k-means views stay lazy" `Quick
            test_zoo_views_stay_lazy;
          Alcotest.test_case "stores keep the smaller form" `Quick
            test_stores_keep_smaller_form;
          Alcotest.test_case "stored words <= materialized words" `Quick
            test_prop_stored_words;
          Alcotest.test_case "matches consumers = expanded" `Quick
            test_prop_matches_consumers;
          Alcotest.test_case "netflix never expands pairs or cand" `Quick
            test_netflix_matches_never_expand;
          Alcotest.test_case "bare-column MAP is zero copy" `Quick
            test_bare_column_map_zero_copy;
          Alcotest.test_case "executor outputs are never views" `Quick
            test_executor_outputs_not_views;
          Alcotest.test_case "fused chains = row oracle" `Quick
            test_prop_fused_differential;
          Alcotest.test_case "JOIN-SELECT kernel = row SELECT of JOIN"
            `Quick test_prop_join_select;
          Alcotest.test_case "JOIN-SELECT refusals are counted" `Quick
            test_join_select_refusals;
          Alcotest.test_case "programs = row evaluation" `Quick
            test_prop_programs ] );
      ( "regression",
        [ Alcotest.test_case "4k fixture byte-identity" `Quick
            test_fixture_identity;
          Alcotest.test_case "4k fixture allocation bound" `Quick
            test_fixture_alloc_bound ] );
      ( "sizing",
        [ Alcotest.test_case "dictionary-aware encoded_bytes" `Quick
            test_encoded_bytes_dictionary;
          Alcotest.test_case "PROJECT estimate within 10%" `Quick
            test_project_estimate_within_10pct ] ) ]
