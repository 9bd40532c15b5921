(* A tiny seeded property-based testing harness — no external
   dependencies, so the fault-injection properties stay runnable on the
   bare toolchain. QCheck-style: an ['a arbitrary] bundles a generator,
   a printer and a shrinker; [check] runs the property over [count]
   generated cases and, on failure, greedily shrinks (by halving) before
   reporting the seed and the minimal counterexample.

   Besides the generic combinators this module carries the domain
   generators the fault-tolerance suite shares: kv relations, operator
   pipelines (always well-typed over the (k:int, v:int) schema, so any
   random composition plans and executes), and fault plans. *)

(* ---- deterministic RNG (splitmix64, same core as Engines.Injector) ---- *)

module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0,1), from the high 53 bits *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

  (* uniform in [0, bound); modulo bias is irrelevant at test scale *)
  let int t bound =
    if bound <= 0 then 0
    else Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1)
                         (Int64.of_int bound))

  let bool t = Int64.logand (next t) 1L = 1L

  let pick t xs = List.nth xs (int t (List.length xs))
end

(* ---- arbitraries ---- *)

type 'a arbitrary = {
  gen : Rng.t -> 'a;
  shrink : 'a -> 'a list;
  print : 'a -> string;
}

let no_shrink _ = []

let make ?(shrink = no_shrink) ~print gen = { gen; shrink; print }

(* shrinking by halving: toward 0 for ints, dropping half for lists *)
let shrink_int n = if n = 0 then [] else List.sort_uniq compare [ 0; n / 2 ]

let halves xs =
  match xs with
  | [] -> []
  | [ _ ] -> [ [] ]
  | _ ->
    let n = List.length xs in
    let k = n / 2 in
    [ List.filteri (fun i _ -> i < k) xs;
      List.filteri (fun i _ -> i >= k) xs ]

let shrink_list ?(shrink_elt = no_shrink) xs =
  let pointwise =
    List.concat
      (List.mapi
         (fun i x ->
            List.map
              (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
              (shrink_elt x))
         xs)
  in
  halves xs @ pointwise

let print_list print xs =
  "[" ^ String.concat "; " (List.map print xs) ^ "]"

(* ---- the check loop ---- *)

exception Falsified of string

(* does the property hold? exceptions count as failures *)
let passes prop x =
  match prop x with
  | true -> None
  | false -> Some "property returned false"
  | exception e -> Some (Printexc.to_string e)

let rec minimize ~budget prop shrink x why =
  if budget = 0 then (x, why)
  else
    let failing =
      List.find_map
        (fun c -> Option.map (fun w -> (c, w)) (passes prop c))
        (shrink x)
    in
    match failing with
    | Some (smaller, why) -> minimize ~budget:(budget - 1) prop shrink smaller why
    | None -> (x, why)

(* [check ~seed ~name arb prop] — raises {!Falsified} with the seed and
   the shrunk counterexample on the first failing case *)
let check ?(count = 50) ~seed ~name arb prop =
  let rng = Rng.create seed in
  for case = 1 to count do
    let x = arb.gen rng in
    match passes prop x with
    | None -> ()
    | Some why ->
      let x, why = minimize ~budget:200 prop arb.shrink x why in
      raise
        (Falsified
           (Printf.sprintf
              "%s: falsified on case %d/%d (seed %d): %s\n\
               counterexample: %s"
              name case count seed why (arb.print x)))
  done

(* ---- domain generators: kv relations ---- *)

let kv_schema =
  Relation.Schema.make
    [ { Relation.Schema.name = "k"; ty = Relation.Value.Tint };
      { Relation.Schema.name = "v"; ty = Relation.Value.Tint } ]

let table_of_rows rows =
  Relation.Table.create kv_schema
    (List.map
       (fun (k, v) -> [| Relation.Value.Int k; Relation.Value.Int v |])
       rows)

(* small key range forces collisions, so GROUP BY and DISTINCT matter *)
let gen_rows rng =
  let n = 1 + Rng.int rng 40 in
  List.init n (fun _ -> (Rng.int rng 8, Rng.int rng 100))

let print_row (k, v) = Printf.sprintf "(%d,%d)" k v

(* kv row lists biased toward the kernels' edge cases: empty tables,
   single rows, all-equal keys (one group gets everything), and tables
   of a few hundred rows *)
let gen_edge_rows rng =
  match Rng.int rng 5 with
  | 0 -> []
  | 1 -> [ (Rng.int rng 8, Rng.int rng 100) ]
  | 2 ->
    let k = Rng.int rng 8 in
    List.init (1 + Rng.int rng 60) (fun _ -> (k, Rng.int rng 100))
  | 3 -> gen_rows rng
  | _ ->
    let n = 64 + Rng.int rng 200 in
    List.init n (fun _ -> (Rng.int rng 16, Rng.int rng 100))

let edge_rows_arbitrary =
  make ~shrink:shrink_list ~print:(print_list print_row) gen_edge_rows

(* independent left/right tables, for join properties *)
let edge_rows_pair_arbitrary =
  make
    ~shrink:(fun (a, b) ->
      List.map (fun a -> (a, b)) (shrink_list a)
      @ List.map (fun b -> (a, b)) (shrink_list b))
    ~print:(fun (a, b) ->
      print_list print_row a ^ " / " ^ print_list print_row b)
    (fun rng -> (gen_edge_rows rng, gen_edge_rows rng))

(* ---- operator pipelines over the kv schema ----

   Every op maps a (k:int, v:int) relation to another, so arbitrary
   compositions always type-check, plan and execute. *)

type op =
  | Select_gt of int   (* keep rows with v > c *)
  | Map_add of int     (* v := v + c *)
  | Group_sum          (* k, sum(v) as v *)
  | Distinct
  | Union_self         (* bag-union with itself *)

let op_to_string = function
  | Select_gt c -> Printf.sprintf "select(v>%d)" c
  | Map_add c -> Printf.sprintf "map(v+%d)" c
  | Group_sum -> "group_sum"
  | Distinct -> "distinct"
  | Union_self -> "union_self"

let gen_op rng =
  match Rng.int rng 5 with
  | 0 -> Select_gt (Rng.int rng 100)
  | 1 -> Map_add (Rng.int rng 20)
  | 2 -> Group_sum
  | 3 -> Distinct
  | _ -> Union_self

let shrink_op = function
  | Select_gt c -> List.map (fun c -> Select_gt c) (shrink_int c)
  | Map_add c -> List.map (fun c -> Map_add c) (shrink_int c)
  | Group_sum | Distinct | Union_self -> []

type workflow_spec = {
  rows : (int * int) list;
  ops : op list;
}

let spec_to_string s =
  Printf.sprintf "{rows=%s; ops=%s}"
    (print_list print_row s.rows)
    (print_list op_to_string s.ops)

let gen_spec rng =
  { rows = gen_rows rng;
    ops = List.init (Rng.int rng 5) (fun _ -> gen_op rng) }

let shrink_spec s =
  List.map (fun rows -> { s with rows }) (shrink_list s.rows)
  @ List.map (fun ops -> { s with ops }) (shrink_list ~shrink_elt:shrink_op s.ops)

let spec_arbitrary =
  make ~shrink:shrink_spec ~print:spec_to_string gen_spec

let apply_op ?name b h = function
  | Select_gt c ->
    Ir.Builder.select b ?name ~pred:Relation.Expr.(col "v" > int c) h
  | Map_add c ->
    Ir.Builder.map b ?name ~target:"v"
      ~expr:Relation.Expr.(col "v" + int c)
      h
  | Group_sum ->
    Ir.Builder.group_by b ?name ~keys:[ "k" ]
      ~aggs:[ Relation.Aggregate.make (Relation.Aggregate.Sum "v")
                ~as_name:"v" ]
      h
  | Distinct -> Ir.Builder.distinct b ?name h
  | Union_self -> Ir.Builder.union b ?name h h

(* builds the IR for a spec; the result relation is always "out" *)
let graph_of_spec spec =
  let b = Ir.Builder.create () in
  let h = List.fold_left (apply_op b) (Ir.Builder.input b "r") spec.ops in
  let out =
    Ir.Builder.select b ~name:"out"
      ~pred:Relation.Expr.(col "k" > int (-1))
      h
  in
  Ir.Builder.finish b ~outputs:[ out ]

let hdfs_of_spec spec =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "r" ~modeled_mb:64. (table_of_rows spec.rows);
  hdfs

(* ---- DAG pairs (canonical-hash properties) ----

   Two independent op-list branches over one shared input.
   [graph_of_branches ~flipped:true] builds branch B before branch A:
   every node gets a different id and the insertion order reverses, but
   structure and relation names are the same — the structural
   canonical hash must agree with the unflipped build. (Names are
   given explicitly: the builder's auto-name counter follows insertion
   order, and relation names are semantic — engines materialize and
   scan-shares key by them — so they belong in the hash.) *)

type branch_pair = {
  ops_a : op list;
  ops_b : op list;
}

let branch_pair_to_string p =
  Printf.sprintf "{A=%s; B=%s}"
    (print_list op_to_string p.ops_a)
    (print_list op_to_string p.ops_b)

let gen_branch_pair rng =
  { ops_a = List.init (Rng.int rng 5) (fun _ -> gen_op rng);
    ops_b = List.init (Rng.int rng 5) (fun _ -> gen_op rng) }

let shrink_branch_pair p =
  List.map
    (fun ops_a -> { p with ops_a })
    (shrink_list ~shrink_elt:shrink_op p.ops_a)
  @ List.map
      (fun ops_b -> { p with ops_b })
      (shrink_list ~shrink_elt:shrink_op p.ops_b)

let branch_pair_arbitrary =
  make ~shrink:shrink_branch_pair ~print:branch_pair_to_string
    gen_branch_pair

let graph_of_branches ~flipped p =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let branch name ops =
    let h, _ =
      List.fold_left
        (fun (h, i) op ->
           (apply_op ~name:(Printf.sprintf "%s_n%d" name i) b h op, i + 1))
        (inp, 0) ops
    in
    Ir.Builder.select b ~name ~pred:Relation.Expr.(col "k" > int (-1)) h
  in
  let outs =
    if flipped then begin
      let ob = branch "outB" p.ops_b in
      let oa = branch "outA" p.ops_a in
      [ oa; ob ]
    end
    else begin
      let oa = branch "outA" p.ops_a in
      let ob = branch "outB" p.ops_b in
      [ oa; ob ]
    end
  in
  Ir.Builder.finish b ~outputs:outs

(* one-op semantic mutation: the mutated spec always denotes a
   different computation, so its canonical hash must differ *)
let mutate_ops = function
  | [] -> [ Map_add 1 ]
  | op :: rest ->
    let op' =
      match op with
      | Select_gt c -> Select_gt (c + 1)
      | Map_add c -> Map_add (c + 1)
      | Group_sum -> Distinct
      | Distinct -> Group_sum
      | Union_self -> Distinct
    in
    op' :: rest

(* ---- fault plans ---- *)

let gen_fault rng =
  match Rng.int rng 4 with
  | 0 -> Engines.Faults.Worker_failure { at_fraction = Rng.float rng }
  | 1 -> Engines.Faults.Engine_rejection "injected OOM"
  | 2 -> Engines.Faults.Engine_rejection "injected rejection"
  | _ -> Engines.Faults.Straggler { slowdown = 1. +. (3. *. Rng.float rng) }

let gen_fault_plan rng =
  { Engines.Faults.seed = Rng.int rng 10_000;
    (* skewed toward 1 so injected faults actually fire *)
    probability = Rng.pick rng [ 1.; 1.; 0.75; 0.5 ];
    faults = List.init (1 + Rng.int rng 4) (fun _ -> gen_fault rng) }

let shrink_fault_plan (p : Engines.Faults.fault_plan) =
  List.filter_map
    (fun faults ->
       if faults = [] then None
       else Some { p with Engines.Faults.faults })
    (halves p.Engines.Faults.faults)

let fault_plan_arbitrary =
  make ~shrink:shrink_fault_plan
    ~print:(fun p ->
      Printf.sprintf "%s (seed %d)" (Engines.Faults.plan_to_string p)
        p.Engines.Faults.seed)
    gen_fault_plan

(* straggler-heavy plans for the supervision suite: every fault is a
   straggler with slowdown in [2,6] — the regime where a speculative
   copy on another engine can beat the original *)
let gen_straggler_plan rng =
  { Engines.Faults.seed = Rng.int rng 10_000;
    probability = Rng.pick rng [ 1.; 1.; 0.75; 0.5 ];
    faults =
      List.init
        (1 + Rng.int rng 3)
        (fun _ ->
           Engines.Faults.Straggler
             { slowdown = 2. +. (4. *. Rng.float rng) }) }

let straggler_plan_arbitrary =
  make ~shrink:shrink_fault_plan
    ~print:(fun p ->
      Printf.sprintf "%s (seed %d)" (Engines.Faults.plan_to_string p)
        p.Engines.Faults.seed)
    gen_straggler_plan

(* ---- table-shape fuzzer (columnar differential suite) ----

   Shapes, not tables: a shape records row count, a cell seed, a null
   density and per-column (type, cardinality) pairs, and
   [table_of_shape] rebuilds the same table deterministically — so
   shrinking and counterexample printing stay cheap. Column 0 is always
   [k : int] (the join / group key); up to 12 extra columns cover every
   value type. Cardinalities are drawn from {1, 10, 10_000}: 1 forces
   all-equal dictionary keys, 10 forces heavy dictionary sharing, 10k
   approaches all-distinct. Row counts are biased toward the kernels'
   edge cases (empty, single row) and include tables of 600-1600 rows.
   Float cells include NaN, +/-inf and -0. so byte-identity covers the
   non-total orders. *)

type table_shape = {
  sh_rows : int;
  sh_extra : (Relation.Value.ty * int) list;  (* extra columns: type, cardinality *)
  sh_null : float;    (* null density for the Column round-trip property *)
  sh_seed : int;      (* cell RNG seed *)
}

let shape_columns sh =
  ("k", Relation.Value.Tint, 16)
  :: List.mapi
       (fun i (ty, card) -> (Printf.sprintf "c%d" i, ty, card))
       sh.sh_extra

let table_of_shape sh =
  let open Relation in
  let rng = Rng.create sh.sh_seed in
  let cols = shape_columns sh in
  let schema =
    Schema.make (List.map (fun (name, ty, _) -> { Schema.name; ty }) cols)
  in
  let cell ty card =
    match (ty : Value.ty) with
    | Value.Tint -> Value.Int (Rng.int rng (2 * card) - card) (* mixed sign *)
    | Value.Tfloat -> (
      match Rng.int rng 16 with
      | 0 -> Value.Float Float.nan
      | 1 -> Value.Float Float.infinity
      | 2 -> Value.Float Float.neg_infinity
      | 3 -> Value.Float (-0.)
      | _ -> Value.Float (float_of_int (Rng.int rng card - (card / 2)) /. 8.))
    | Value.Tbool -> Value.Bool (Rng.bool rng)
    | Value.Tstring -> Value.Str (Printf.sprintf "s%d" (Rng.int rng card))
  in
  let rows =
    Array.init sh.sh_rows (fun _ ->
        Array.of_list (List.map (fun (_, ty, card) -> cell ty card) cols))
  in
  Table.create_unchecked schema rows

let ty_to_string = function
  | Relation.Value.Tint -> "int"
  | Relation.Value.Tfloat -> "float"
  | Relation.Value.Tbool -> "bool"
  | Relation.Value.Tstring -> "str"

let shape_to_string sh =
  Printf.sprintf "{rows=%d; null=%.1f; seed=%d; cols=[%s]}" sh.sh_rows
    sh.sh_null sh.sh_seed
    (String.concat "; "
       (List.map
          (fun (ty, card) -> Printf.sprintf "%s/%d" (ty_to_string ty) card)
          sh.sh_extra))

let gen_shape rng =
  let n =
    match Rng.int rng 5 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> 2 + Rng.int rng 60
    | 3 -> 100 + Rng.int rng 300
    | _ -> 600 + Rng.int rng 1000
  in
  let extra =
    List.init (Rng.int rng 12) (fun _ ->
        let ty =
          Rng.pick rng
            [ Relation.Value.Tint; Relation.Value.Tfloat;
              Relation.Value.Tbool; Relation.Value.Tstring ]
        in
        (ty, Rng.pick rng [ 1; 10; 10_000 ]))
  in
  { sh_rows = n;
    sh_extra = extra;
    sh_null = Rng.pick rng [ 0.; 0.5; 1. ];
    sh_seed = Rng.int rng 1_000_000 }

let shrink_shape sh =
  (if sh.sh_rows > 0 then
     [ { sh with sh_rows = 0 }; { sh with sh_rows = sh.sh_rows / 2 } ]
   else [])
  @ List.map (fun sh_extra -> { sh with sh_extra }) (halves sh.sh_extra)

let shape_arbitrary =
  make ~shrink:shrink_shape ~print:shape_to_string gen_shape

(* independent left/right shapes for join properties; both have [k] *)
let shape_pair_arbitrary =
  make
    ~shrink:(fun (a, b) ->
      List.map (fun a -> (a, b)) (shrink_shape a)
      @ List.map (fun b -> (a, b)) (shrink_shape b))
    ~print:(fun (a, b) -> shape_to_string a ^ " / " ^ shape_to_string b)
    (fun rng -> (gen_shape rng, gen_shape rng))
