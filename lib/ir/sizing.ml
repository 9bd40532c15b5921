type estimate = {
  expected : float;
  upper : float option;
}

let sum = List.fold_left ( +. ) 0.

let first = function
  | x :: _ -> x
  | [] -> 0.

let second = function
  | _ :: y :: _ -> y
  | _ -> 0.

(* Default selectivities: crude, as in the paper's proof-of-concept cost
   function. History overrides them after the first run. *)
let of_kind (kind : Operator.kind) ~inputs =
  let input_total = sum inputs in
  match kind with
  | Operator.Input _ -> { expected = input_total; upper = Some input_total }
  | Operator.Select _ ->
    { expected = 0.5 *. input_total; upper = Some input_total }
  | Operator.Project { columns } ->
    (* proportional to retained columns; arity unknown here, assume the
       projection keeps roughly half the bytes per dropped column *)
    let frac = min 1. (0.25 *. float_of_int (List.length columns)) in
    { expected = frac *. input_total; upper = Some input_total }
  | Operator.Map _ ->
    { expected = 1.15 *. input_total; upper = Some (2. *. input_total) }
  | Operator.Join _ ->
    (* foreign-key joins dominate; output near the larger input, but no
       semantic upper bound (§5.2: JOINs have unknown bounds) *)
    { expected = max (first inputs) (second inputs); upper = None }
  | Operator.Left_outer_join _ ->
    (* at least one output row per left row, otherwise join-like *)
    { expected = max (first inputs) (second inputs) +. first inputs;
      upper = None }
  | Operator.Semi_join _ | Operator.Anti_join _ ->
    { expected = 0.5 *. first inputs; upper = Some (first inputs) }
  | Operator.Cross ->
    { expected = first inputs *. max 1. (second inputs); upper = None }
  | Operator.Union ->
    { expected = input_total; upper = Some input_total }
  | Operator.Intersect ->
    let m = min (first inputs) (second inputs) in
    { expected = 0.5 *. m; upper = Some m }
  | Operator.Difference ->
    { expected = 0.5 *. first inputs; upper = Some (first inputs) }
  | Operator.Distinct ->
    { expected = 0.7 *. input_total; upper = Some input_total }
  | Operator.Group_by _ ->
    { expected = 0.3 *. input_total; upper = Some input_total }
  | Operator.Agg _ -> { expected = 0.0001; upper = Some 0.001 }
  | Operator.Sort _ -> { expected = input_total; upper = Some input_total }
  | Operator.Top_k { k; _ } ->
    let mb = max 0.0001 (float_of_int k *. 0.0001) in
    { expected = mb; upper = Some mb }
  | Operator.Udf _ -> { expected = input_total; upper = None }
  | Operator.While _ -> { expected = input_total; upper = None }
  | Operator.Black_box _ -> { expected = input_total; upper = None }

(* Dictionary-aware PROJECT estimate: the generic [of_kind] charges a
   flat 25% per retained column, which overstates narrow columns and —
   worse — misprices dictionary-encoded strings, whose per-row cost is a
   4-byte code regardless of string length. When the input table is at
   hand, weigh each retained column by its actual encoded bytes
   ({!Relation.Column.encoded_bytes} charges a dictionary's distinct
   strings once, not per row). Returns [None] when some retained column
   is not in the table's schema (e.g. created upstream by a MAP inside a
   fused chain) — callers fall back to [of_kind]. *)
let project_mb table columns ~in_mb =
  let open Relation in
  let schema = Table.schema table in
  let known =
    List.for_all
      (fun name ->
         List.exists
           (fun (c : Schema.column) -> c.name = name)
           (Schema.columns schema))
      columns
  in
  if not known then None
  else begin
    let bytes = Table.column_bytes table in
    let total = ref 0 and kept = ref 0 in
    List.iteri
      (fun i (c : Schema.column) ->
         let b = bytes.(i) in
         total := !total + b;
         if List.mem c.name columns then kept := !kept + b)
      (Schema.columns schema);
    if !total = 0 then Some 0.
    else Some (in_mb *. (float_of_int !kept /. float_of_int !total))
  end

let safe_to_merge_without_history kind ~inputs =
  if Operator.selective kind then true
  else
    match (of_kind kind ~inputs).upper with
    | Some u -> u <= 1.5 *. sum inputs
    | None -> false
