(* Columnar storage and the vectorized kernels, proven byte-identical
   to the row engine.

   Three layers, mirroring the columnar refactor's contract:

   - round-trip: rows -> columns -> rows is the identity, bit-for-bit —
     including NaN payloads, -0., validity bitmaps and dictionary
     re-encoding (unit cases per type plus a fuzzed property over
     Qcheck_lite.shape_arbitrary table shapes);
   - differential: every vectorized kernel (select / project / map /
     join / group_by / sort, plus fused chains) produces byte-identical
     CSV to the row engine with the columnar gate off, at jobs 1, 2
     and 4;
   - regression: the three kernels that regressed during the columnar
     bring-up (group_by, project, join) are pinned on a checked-in
     4096-row fixture at jobs=4, with a Gc.allocated_bytes bound that
     fails if any of them silently falls back to per-row boxing. *)

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

let test_all_equal_dict () =
  let c =
    Column.of_values Value.Tstring
      (Array.make 1000 (Value.Str "only-key"))
  in
  check "dict collapses" true (Column.dictionary_size c = Some 1);
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

let test_gather_reencodes_dict () =
  let c =
    Column.of_values Value.Tstring
      [| Value.Str "a"; Value.Str "b"; Value.Str "c"; Value.Str "b" |]
  in
  check "full dict" true (Column.dictionary_size c = Some 3);
  (* a selection smaller than the dictionary compacts it, so dropped
     entries stop counting toward encoded size *)
  let g = Column.gather c [| 1; 3 |] in
  check "compacted" true (Column.dictionary_size g = Some 1);
  check "values" true
    (Column.to_values g = [| Value.Str "b"; Value.Str "b" |]);
  (* duplicated + reordered indices gather in idx order (selection not
     smaller than the dict: shares it, no re-encode) *)
  let g2 = Column.gather c [| 2; 0; 2 |] in
  check "idx order" true
    (Column.to_values g2 = [| Value.Str "c"; Value.Str "a"; Value.Str "c" |])

let test_concat_merges_dicts () =
  let a =
    Column.of_values Value.Tstring [| Value.Str "x"; Value.Str "y" |]
  in
  let b =
    Column.of_values Value.Tstring
      [| Value.Str "y"; Value.Str "z"; Value.Str "x" |]
  in
  let c = Column.concat [ a; b ] in
  check "length" true (Column.length c = 5);
  check "first-appearance merge" true (Column.dictionary_size c = Some 3);
  check "values" true
    (Column.to_values c
     = [| Value.Str "x"; Value.Str "y"; Value.Str "y"; Value.Str "z";
          Value.Str "x" |]);
  (* append with validity: null positions survive the merge *)
  let n =
    Column.of_options Value.Tint [| Some (Value.Int 1); None |]
  in
  let m = Column.append n n in
  check "validity appended" true
    (Column.valid_at m 0 && (not (Column.valid_at m 1))
     && Column.valid_at m 2
     && not (Column.valid_at m 3))

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

   Reference = the row engine (columnar gate off) at jobs=1. The
   columnar path must match its CSV byte-for-byte at jobs 1, 2 and 4 —
   including the kernels' deliberate fallbacks (float keys, keyless
   GROUP BY, SUM/AVG over non-numeric inputs), which take the row path
   and are identical by construction. *)

let jobs_matrix = [ 1; 2; 4 ]

let row_reference f = Column.with_enabled false (fun () -> Pool.with_jobs 1 f)

let columnar_matches f =
  let expect = Table.to_csv (row_reference f) in
  List.for_all
    (fun jobs ->
       let got =
         Column.with_enabled true (fun () -> Pool.with_jobs jobs f)
       in
       Table.to_csv got = expect)
    jobs_matrix

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
        List.for_all columnar_matches (kernels @ typed @ multi_keyed))
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
       Alcotest.(check bool) (name ^ " byte-identical, jobs 1/2/4") true
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
        Pool.with_jobs 1 (fun () ->
            ignore
              (Ir.Interp.outputs ~store:(Ir.Interp.store_of_list bindings)
                 graph)))
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
               (fun jobs ->
                  List.for_all
                    (fun columnar ->
                       let got =
                         Column.with_enabled columnar (fun () ->
                             Pool.with_jobs jobs (chain src))
                       in
                       Table.to_csv got = expect)
                    [ true; false ])
               jobs_matrix)
          [ (fun () -> t); (fun () -> Kernel.select t Expr.(col "k" < int 9)) ])
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---- late-materialized views ----

   JOIN and CROSS return views over their inputs' columns; SELECT,
   PROJECT, MAP, GROUP BY and JOIN then read through the views. Every
   chain below starts at a view and must match the row engine byte for
   byte at jobs 1, 2 and 4. *)

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

(* a view's size is counted without gathering it, and equals the size
   of its materialization — settled or not, dictionaries included *)
let test_prop_view_encoded_bytes () =
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"view bytes == materialized bytes"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        let views =
          [ (fun () -> Kernel.cross_join a b);
            (fun () -> Kernel.join a b ~left_key:"k" ~right_key:"k");
            (fun () ->
               Kernel.select (Kernel.cross_join a b) Expr.(col "k" = int 1));
            (fun () ->
               (* unsettled: a chain interior, as a fused chain sees it *)
               Option.get
                 (Columnar.try_select (Kernel.cross_join a b)
                    Expr.(col "r_k" > int 2))) ]
          @ List.map
              (fun s () ->
                 Option.get
                   (Columnar.try_select
                      (Kernel.join b a ~left_key:"k" ~right_key:"k")
                      Expr.(col s = str "s2")))
              (first_cols_of_ty b Value.Tstring)
        in
        Column.with_enabled true (fun () ->
            List.for_all
              (fun v ->
                 let t = v () in
                 let viewed = Table.is_view t || Table.row_count t = 0 in
                 let bytes = Table.encoded_bytes t in
                 let still_view = Table.is_view t || Table.row_count t = 0 in
                 let materialized =
                   Table.of_columns (Table.schema t) (Table.columns t)
                 in
                 viewed && still_view
                 && bytes = Table.encoded_bytes materialized)
              views))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* Kernels over views give the sizes eager execution gives: a chain run
   lazily has the encoded bytes of the same chain with every kernel's
   output materialized before the next one runs — consecutive selective
   filters over dictionary columns included, where the order of
   dictionary compactions decides the size. *)
let test_prop_lazy_sizes_are_eager () =
  let force t = Table.of_columns (Table.schema t) (Table.columns t) in
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"lazy sizes == eager sizes"
      Qcheck_lite.shape_pair_arbitrary (fun (sa, sb) ->
        let a = Qcheck_lite.table_of_shape (cap_rows sa)
        and b = Qcheck_lite.table_of_shape (cap_rows sb) in
        (* each filter drops a share of the rows and of the distinct
           strings, so successive compactions can disagree with one
           composed one *)
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
                    ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]) ] ]
        in
        Column.with_enabled true (fun () ->
            List.for_all
              (fun chain ->
                 let lazy_ = List.fold_left (fun t k -> k t) a chain
                 and eager = List.fold_left (fun t k -> force (k t)) a chain in
                 Table.encoded_bytes lazy_ = Table.encoded_bytes eager
                 && Table.to_csv lazy_ = Table.to_csv eager)
              chains))
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* NetFlix and k-means read every JOIN/CROSS view through SELECT, MAP,
   GROUP BY or JOIN: nothing inside the workflow materializes one. Only
   a workflow output is forced, when it leaves the job. *)
let test_zoo_views_stay_lazy () =
  let materialized () =
    Obs.Metrics.counter Obs.Metrics.default "kernel.view.materialized"
  in
  let ratings, movies = Workloads.Datagen.netflix ~movies:1000 () in
  let pts, cents = Workloads.Datagen.kmeans_points ~points:400 ~k:5 () in
  List.iter
    (fun (name, graph, bindings) ->
       Column.with_enabled true @@ fun () ->
       Pool.with_jobs 1 @@ fun () ->
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
       (* the engine path forces its outputs as they leave the job *)
       let hdfs = Engines.Hdfs.create () in
       List.iter (fun (r, t) -> Engines.Hdfs.put hdfs r t) bindings;
       let r = Engines.Exec_helper.execute ~hdfs graph in
       List.iter
         (fun (out, t, _) ->
            Alcotest.(check bool) (name ^ ": " ^ out ^ " leaves as columns")
              false (Table.is_view t))
         r.Engines.Exec_helper.outputs)
    [ ("netflix", Workloads.Workflows.netflix (),
       [ ("ratings", ratings.Workloads.Datagen.table);
         ("movies", movies.Workloads.Datagen.table) ]);
      ("kmeans", Workloads.Workflows.kmeans ~iterations:2 (),
       [ ("points", pts.Workloads.Datagen.table);
         ("centroids", cents.Workloads.Datagen.table) ]) ]

(* the stores that outlive a job hold no view: a view would pin its
   inputs' columns for as long as the entry lives *)
let test_stores_hold_no_view () =
  Column.with_enabled true @@ fun () ->
  let t =
    Qcheck_lite.table_of_shape
      { Qcheck_lite.sh_rows = 30; sh_extra = [ (Value.Tstring, 10) ];
        sh_null = 0.; sh_seed = 7 }
  in
  let view () = Kernel.cross_join t (Kernel.project t [ "c0" ]) in
  Alcotest.(check bool) "kernel output is a view" true
    (Table.is_view (view ()));
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "x" (view ());
  Alcotest.(check bool) "HDFS entry" false
    (Table.is_view (Engines.Hdfs.table hdfs "x"));
  let share = Engines.Subplan_share.create () in
  Engines.Subplan_share.publish share ~key:"p" ~inputs:[] ~mb:1. (view ());
  (match Engines.Subplan_share.claim share ~key:"p" with
   | Some (s, _) ->
     Alcotest.(check bool) "subplan share entry" false (Table.is_view s)
   | None -> Alcotest.fail "published subplan not claimable");
  let cache = Serve.Subresult_cache.create ~capacity_mb:64. in
  Serve.Subresult_cache.insert cache ~key:"p" ~inputs:[] ~mb:1. (view ());
  match Serve.Subresult_cache.find cache ~key:"p" ~epoch:(fun _ -> 0) with
  | Some (c, _) ->
    Alcotest.(check bool) "sub-result cache entry" false (Table.is_view c)
  | None -> Alcotest.fail "inserted sub-result not found"

(* ---- satellite: 4k-row fixture regression ----

   group_by, project and join regressed during the columnar bring-up
   (closure-per-element inner loops, boxed gathers); this pins them on
   a checked-in fixture at jobs=4, plus an allocation bound that fails
   if a kernel starts boxing per row again. *)

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
    ("project", fun () -> Kernel.project t [ "tag"; "k"; "x" ]);
    ("join", fun () ->
        Kernel.join t (Lazy.force fixture_dims) ~left_key:"k"
          ~right_key:"k") ]

let test_fixture_identity_jobs4 () =
  let t = load_fixture () in
  Alcotest.(check int) "fixture rows" 4096 (Table.row_count t);
  List.iter
    (fun (name, f) ->
       let expect = Table.to_csv (row_reference f) in
       let got =
         Column.with_enabled true (fun () -> Pool.with_jobs 4 f)
       in
       Alcotest.(check bool)
         (name ^ " columnar jobs=4 byte-identical") true
         (Table.to_csv got = expect))
    (fixture_kernels t)

(* Per-row allocation budgets, in bytes per input row. The columnar
   kernels allocate unboxed index/accumulator arrays (measured on this
   fixture: group_by ~8, project ~0, join ~72 B/row) where the row
   engine boxes every cell (group_by ~480 B/row). Budgets sit 3-8x
   above the measured columnar cost and far below per-row boxing, so a
   silent fallback to the row path trips them. *)
let alloc_budgets =
  [ ("group_by", 64.); ("project", 16.); ("join", 256.) ]

let test_fixture_alloc_bound () =
  let t = load_fixture () in
  ignore (Table.columns t);
  ignore (Table.columns (Lazy.force fixture_dims));
  let n = float_of_int (Table.row_count t) in
  List.iter
    (fun (name, f) ->
       let budget = List.assoc name alloc_budgets in
       Column.with_enabled true (fun () ->
           Pool.with_jobs 4 (fun () ->
               ignore (f ()); (* warm up: one-time lazies out of the way *)
               (* min over repetitions: a single run is noisy (one-off
                  hashtable resizes, pool scheduling) and flakes *)
               let min_delta = ref infinity in
               for _ = 1 to 5 do
                 let before = Gc.allocated_bytes () in
                 ignore (Sys.opaque_identity (f ()));
                 let delta = Gc.allocated_bytes () -. before in
                 if delta < !min_delta then min_delta := delta
               done;
               let per_row = !min_delta /. n in
               Alcotest.(check bool)
                 (Printf.sprintf
                    "%s allocates %.1f B/row (budget %.0f)" name per_row
                    budget)
                 true (per_row <= budget))))
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
  List.iter
    (fun cols ->
       let predicted =
         match Ir.Sizing.project_mb t cols ~in_mb with
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
    (Ir.Sizing.project_mb t [ "k"; "made-by-map" ] ~in_mb = None)

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
          Alcotest.test_case "gather re-encodes dict" `Quick
            test_gather_reencodes_dict;
          Alcotest.test_case "concat merges dicts" `Quick
            test_concat_merges_dicts;
          Alcotest.test_case "builder growth" `Quick test_builder_growth;
          Alcotest.test_case "compare_at semantics" `Quick
            test_compare_at_matches_value_compare;
          Alcotest.test_case "fuzzed table roundtrip" `Quick
            test_prop_table_roundtrip;
          Alcotest.test_case "fuzzed nullable roundtrip" `Quick
            test_prop_column_roundtrip_nulls ] );
      ( "differential",
        [ Alcotest.test_case "kernels, jobs 1/2/4" `Quick
            test_prop_kernel_differential;
          Alcotest.test_case "joins, jobs 1/2/4" `Quick
            test_prop_join_differential;
          Alcotest.test_case "cross joins, jobs 1/2/4" `Quick
            test_prop_cross_differential;
          Alcotest.test_case "extreme and one-sided keys" `Quick
            test_extreme_and_missing_keys;
          Alcotest.test_case "netflix and k-means stay columnar" `Quick
            test_zoo_kernels_columnar;
          Alcotest.test_case "view chains, jobs 1/2/4" `Quick
            test_prop_view_chains;
          Alcotest.test_case "view bytes = materialized bytes" `Quick
            test_prop_view_encoded_bytes;
          Alcotest.test_case "lazy sizes = eager sizes" `Quick
            test_prop_lazy_sizes_are_eager;
          Alcotest.test_case "netflix and k-means views stay lazy" `Quick
            test_zoo_views_stay_lazy;
          Alcotest.test_case "stores hold no view" `Quick
            test_stores_hold_no_view;
          Alcotest.test_case "fused chains, fusion on/off" `Quick
            test_prop_fused_differential ] );
      ( "regression",
        [ Alcotest.test_case "4k fixture byte-identity at jobs=4" `Quick
            test_fixture_identity_jobs4;
          Alcotest.test_case "4k fixture allocation bound" `Quick
            test_fixture_alloc_bound ] );
      ( "sizing",
        [ Alcotest.test_case "dictionary-aware encoded_bytes" `Quick
            test_encoded_bytes_dictionary;
          Alcotest.test_case "PROJECT estimate within 10%" `Quick
            test_project_estimate_within_10pct ] ) ]
