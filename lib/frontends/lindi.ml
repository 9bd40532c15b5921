open Relation

type query =
  | Read of string
  | Ref of string  (* loop-carried / seed reference inside iterate *)
  | Where of Expr.t * query
  | Select of string list * query
  | Map of string * Expr.t * query
  | Join of (string * string) * query * query
  | Louter of (string * string) * Value.t list * query * query
  | Semi of (string * string) * query * query
  | Anti of (string * string) * query * query
  | Cross of query * query
  | Union of query * query
  | Intersect of query * query
  | Except of query * query
  | Distinct of query
  | Group_by of string list * Aggregate.t list * query
  | Aggregate_q of Aggregate.t list * query
  | Order_by of bool * string * query
  | Top of bool * string * int * query
  | Iterate of {
      carrying : string list;
      iterations : int;
      seeds : (string * query) list;
      body : (string -> query) -> (string * query) list;
    }

(* the one leaf, opaque so that no two calls share a static block: a
   fresh [Read] makes every query built on it fresh *)
let read relation = Read (Sys.opaque_identity relation)

let where pred q = Where (pred, q)

let select columns q = Select (columns, q)

let map ~target expr q = Map (target, expr, q)

let join ~on left right = Join (on, left, right)

let left_outer_join ~on ~defaults left right =
  Louter (on, defaults, left, right)

let semi_join ~on left right = Semi (on, left, right)

let anti_join ~on left right = Anti (on, left, right)

let cross a b = Cross (a, b)

let union a b = Union (a, b)

let intersect a b = Intersect (a, b)

let except a b = Except (a, b)

let distinct q = Distinct q

let group_by ~keys ~aggs q = Group_by (keys, aggs, q)

let aggregate aggs q = Aggregate_q (aggs, q)

let order_by ?(descending = false) by q = Order_by (descending, by, q)

let top ?(descending = true) ~by k q = Top (descending, by, k, q)

let iterate ~carrying ~iterations seeds body =
  Iterate { carrying; iterations; seeds; body }

(* ---------------- elaboration ---------------- *)

(* a shared sub-query is one value (every combinator allocates a fresh
   one), so the memo looks queries up by physical identity *)
type ctx = {
  builder : Ir.Builder.t;
  mutable memo : (query * Ir.Builder.handle) list;
  refs : (string, Ir.Builder.handle) Hashtbl.t;
}

let rec elaborate ctx ?name q =
  match name, List.assq_opt q ctx.memo with
  | None, Some h -> h
  | _ ->
    let h =
      match q with
      | Read relation -> Ir.Builder.input ctx.builder relation
      | Ref r -> (
        match Hashtbl.find_opt ctx.refs r with
        | Some h -> h
        | None -> invalid_arg (Printf.sprintf "Lindi: unbound reference %S" r))
      | Where (pred, src) ->
        Ir.Builder.select ctx.builder ?name ~pred (elaborate ctx src)
      | Select (columns, src) ->
        Ir.Builder.project ctx.builder ?name ~columns (elaborate ctx src)
      | Map (target, expr, src) ->
        Ir.Builder.map ctx.builder ?name ~target ~expr (elaborate ctx src)
      | Join ((left_key, right_key), l, r) ->
        Ir.Builder.join ctx.builder ?name ~left_key ~right_key
          (elaborate ctx l) (elaborate ctx r)
      | Louter ((left_key, right_key), defaults, l, r) ->
        Ir.Builder.left_outer_join ctx.builder ?name ~left_key ~right_key
          ~defaults (elaborate ctx l) (elaborate ctx r)
      | Semi ((left_key, right_key), l, r) ->
        Ir.Builder.semi_join ctx.builder ?name ~left_key ~right_key
          (elaborate ctx l) (elaborate ctx r)
      | Anti ((left_key, right_key), l, r) ->
        Ir.Builder.anti_join ctx.builder ?name ~left_key ~right_key
          (elaborate ctx l) (elaborate ctx r)
      | Cross (l, r) ->
        Ir.Builder.cross ctx.builder ?name (elaborate ctx l) (elaborate ctx r)
      | Union (l, r) ->
        Ir.Builder.union ctx.builder ?name (elaborate ctx l) (elaborate ctx r)
      | Intersect (l, r) ->
        Ir.Builder.intersect ctx.builder ?name (elaborate ctx l)
          (elaborate ctx r)
      | Except (l, r) ->
        Ir.Builder.difference ctx.builder ?name (elaborate ctx l)
          (elaborate ctx r)
      | Distinct src -> Ir.Builder.distinct ctx.builder ?name (elaborate ctx src)
      | Group_by (keys, aggs, src) ->
        Ir.Builder.group_by ctx.builder ?name ~keys ~aggs (elaborate ctx src)
      | Aggregate_q (aggs, src) ->
        Ir.Builder.agg ctx.builder ?name ~aggs (elaborate ctx src)
      | Order_by (descending, by, src) ->
        Ir.Builder.sort ctx.builder ?name ~by ~descending (elaborate ctx src)
      | Top (descending, by, k, src) ->
        Ir.Builder.top_k ctx.builder ?name ~by ~descending ~k
          (elaborate ctx src)
      | Iterate { carrying; iterations; seeds; body } ->
        elaborate_iterate ctx ?name ~carrying ~iterations ~seeds ~body ()
    in
    if name = None then ctx.memo <- (q, h) :: ctx.memo;
    h

and elaborate_iterate ctx ?name ~carrying ~iterations ~seeds ~body () =
  let body_builder = Ir.Builder.create () in
  let body_ctx =
    { builder = body_builder; memo = []; refs = Hashtbl.create 8 }
  in
  (* seed inputs, in seed order — the WHILE binds positionally *)
  List.iter
    (fun (seed_name, _) ->
       Hashtbl.replace body_ctx.refs seed_name
         (Ir.Builder.input body_builder seed_name))
    seeds;
  let next = body (fun r -> Ref r) in
  let carried =
    List.map
      (fun r ->
         match List.assoc_opt r next with
         | Some q -> (r, elaborate body_ctx ~name:r q)
         | None ->
           invalid_arg
             (Printf.sprintf "Lindi.iterate: body does not produce %S" r))
      carrying
  in
  let body_graph = Ir.Builder.finish_body body_builder ~carried in
  let seed_handles = List.map (fun (_, q) -> elaborate ctx q) seeds in
  Ir.Builder.while_ ctx.builder ?name
    ~condition:(Ir.Operator.Fixed_iterations iterations)
    ~max_iterations:(iterations + 1) ~body:body_graph seed_handles

let fresh_ctx () =
  { builder = Ir.Builder.create (); memo = []; refs = Hashtbl.create 8 }

let finish ~name q =
  let ctx = fresh_ctx () in
  let h = elaborate ctx ~name q in
  Ir.Builder.finish ctx.builder ~outputs:[ h ]
