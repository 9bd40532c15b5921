type loop_condition =
  | Fixed_iterations of int
  | Until_empty of string
  | Until_fixpoint of string

type kind =
  | Input of { relation : string }
  | Select of { pred : Relation.Expr.t }
  | Project of { columns : string list }
  | Map of { target : string; expr : Relation.Expr.t }
  | Join of { left_key : string; right_key : string }
  | Left_outer_join of {
      left_key : string;
      right_key : string;
      defaults : Relation.Value.t list;
    }
  | Semi_join of { left_key : string; right_key : string }
  | Anti_join of { left_key : string; right_key : string }
  | Cross
  | Union
  | Intersect
  | Difference
  | Distinct
  | Group_by of { keys : string list; aggs : Relation.Aggregate.t list }
  | Agg of { aggs : Relation.Aggregate.t list }
  | Sort of { by : string; descending : bool }
  | Top_k of { by : string; descending : bool; k : int }
  | Udf of udf
  | While of { condition : loop_condition; max_iterations : int; body : graph }
  | Black_box of { backend_hint : string; description : string }

and udf = {
  udf_name : string;
  arity : int;
  fn : Relation.Table.t list -> Relation.Table.t;
  out_schema : Relation.Schema.t list -> Relation.Schema.t;
  cost_factor : float;
}

and node = {
  id : int;
  kind : kind;
  inputs : int list;
  output : string;
}

and graph = {
  nodes : node list;
  outputs : int list;
  carried : (string * string) list;
}

let expected_arity = function
  | Input _ -> Some 0
  | Select _ | Project _ | Map _ | Distinct | Group_by _ | Agg _ | Sort _
  | Top_k _ ->
    Some 1
  | Join _ | Left_outer_join _ | Semi_join _ | Anti_join _ | Cross | Union
  | Intersect | Difference ->
    Some 2
  | Udf u -> Some u.arity
  | While { body; _ } ->
    Some
      (List.length
         (List.filter
            (fun n -> match n.kind with Input _ -> true | _ -> false)
            body.nodes))
  | Black_box _ -> None

let kind_name = function
  | Input _ -> "INPUT"
  | Select _ -> "SELECT"
  | Project _ -> "PROJECT"
  | Map _ -> "MAP"
  | Join _ -> "JOIN"
  | Left_outer_join _ -> "LEFT OUTER JOIN"
  | Semi_join _ -> "SEMI JOIN"
  | Anti_join _ -> "ANTI JOIN"
  | Cross -> "CROSS"
  | Union -> "UNION"
  | Intersect -> "INTERSECT"
  | Difference -> "DIFFERENCE"
  | Distinct -> "DISTINCT"
  | Group_by _ -> "GROUP BY"
  | Agg _ -> "AGG"
  | Sort _ -> "SORT"
  | Top_k _ -> "TOP_K"
  | Udf _ -> "UDF"
  | While _ -> "WHILE"
  | Black_box _ -> "BLACK_BOX"

let describe kind =
  match kind with
  | Input { relation } -> Printf.sprintf "INPUT %s" relation
  | Select { pred } ->
    Printf.sprintf "SELECT WHERE %s" (Relation.Expr.to_string pred)
  | Project { columns } ->
    Printf.sprintf "PROJECT [%s]" (String.concat ", " columns)
  | Map { target; expr } ->
    Printf.sprintf "MAP %s := %s" target (Relation.Expr.to_string expr)
  | Join { left_key; right_key } ->
    Printf.sprintf "JOIN ON %s = %s" left_key right_key
  | Left_outer_join { left_key; right_key; defaults } ->
    Printf.sprintf "LEFT OUTER JOIN ON %s = %s DEFAULT [%s]" left_key
      right_key
      (String.concat ", " (List.map Relation.Value.to_string defaults))
  | Semi_join { left_key; right_key } ->
    Printf.sprintf "SEMI JOIN ON %s = %s" left_key right_key
  | Anti_join { left_key; right_key } ->
    Printf.sprintf "ANTI JOIN ON %s = %s" left_key right_key
  | Cross -> "CROSS JOIN"
  | Union -> "UNION"
  | Intersect -> "INTERSECT"
  | Difference -> "DIFFERENCE"
  | Distinct -> "DISTINCT"
  | Group_by { keys; aggs } ->
    Printf.sprintf "GROUP BY [%s] AGG [%s]" (String.concat ", " keys)
      (String.concat ", "
         (List.map
            (fun (a : Relation.Aggregate.t) ->
               Relation.Aggregate.fn_to_string a.fn)
            aggs))
  | Agg { aggs } ->
    Printf.sprintf "AGG [%s]"
      (String.concat ", "
         (List.map
            (fun (a : Relation.Aggregate.t) ->
               Relation.Aggregate.fn_to_string a.fn)
            aggs))
  | Sort { by; descending } ->
    Printf.sprintf "SORT BY %s %s" by (if descending then "DESC" else "ASC")
  | Top_k { by; descending; k } ->
    Printf.sprintf "TOP %d BY %s %s" k by (if descending then "DESC" else "ASC")
  | Udf u -> Printf.sprintf "UDF %s/%d" u.udf_name u.arity
  | While { condition; max_iterations; body } ->
    let cond =
      match condition with
      | Fixed_iterations n -> Printf.sprintf "iteration < %d" n
      | Until_empty r -> Printf.sprintf "until %s empty" r
      | Until_fixpoint r -> Printf.sprintf "until %s fixpoint" r
    in
    Printf.sprintf "WHILE (%s, max %d) { %d ops }" cond max_iterations
      (List.length body.nodes)
  | Black_box { backend_hint; description } ->
    Printf.sprintf "BLACK_BOX[%s] %s" backend_hint description

let selective = function
  | Select _ | Project _ | Distinct | Group_by _ | Agg _ | Top_k _
  | Intersect | Difference | Semi_join _ | Anti_join _ ->
    true
  | Input _ | Map _ | Join _ | Left_outer_join _ | Cross | Union | Sort _
  | Udf _ | While _ | Black_box _ ->
    false

let generative = function
  | Join _ | Left_outer_join _ | Cross | Union | Udf _ | While _
  | Black_box _ ->
    true
  | Input _ | Select _ | Project _ | Map _ | Intersect | Difference
  | Distinct | Group_by _ | Agg _ | Sort _ | Top_k _ | Semi_join _
  | Anti_join _ ->
    false

let needs_shuffle = function
  | Join _ | Left_outer_join _ | Semi_join _ | Anti_join _ | Group_by _
  | Agg _ | Intersect | Difference | Distinct | Sort _ | Top_k _ | Cross ->
    true
  | Input _ | Select _ | Project _ | Map _ | Union | Udf _ | While _
  | Black_box _ ->
    false

let associative_aggregation = function
  | Group_by { aggs; _ } | Agg { aggs } ->
    List.for_all
      (fun (a : Relation.Aggregate.t) -> Relation.Aggregate.associative a.fn)
      aggs
  | Input _ | Select _ | Project _ | Map _ | Join _ | Left_outer_join _
  | Semi_join _ | Anti_join _ | Cross | Union | Intersect | Difference
  | Distinct | Sort _ | Top_k _ | Udf _ | While _ | Black_box _ ->
    true
