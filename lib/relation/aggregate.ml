type fn =
  | Count
  | Sum of string
  | Min of string
  | Max of string
  | Avg of string
  | First of string

type t = {
  fn : fn;
  as_name : string;
}

let make fn ~as_name = { fn; as_name }

let input_column = function
  | Count -> None
  | Sum c | Min c | Max c | Avg c | First c -> Some c

let associative = function
  | Count | Sum _ | Min _ | Max _ -> true
  | Avg _ | First _ -> false

let result_type fn ~input =
  match fn, input with
  | Count, _ -> Value.Tint
  | (Sum _ | Avg _), Some (Value.Tint as ty) -> (
    match fn with
    | Avg _ -> Value.Tfloat
    | _ -> ty)
  | (Sum _ | Avg _), Some Value.Tfloat -> Value.Tfloat
  | (Sum _ | Avg _), Some ty ->
    invalid_arg
      (Printf.sprintf "Aggregate: cannot %s over %s"
         (match fn with Sum _ -> "sum" | _ -> "average")
         (Value.ty_to_string ty))
  | (Min _ | Max _ | First _), Some ty -> ty
  | (Sum _ | Min _ | Max _ | Avg _ | First _), None ->
    invalid_arg "Aggregate.result_type: missing input type"

type state =
  | S_count of int
  | S_sum of Value.t option
  | S_minmax of Value.t option
  | S_avg of float * int
  | S_first of Value.t option

let init = function
  | Count -> S_count 0
  | Sum _ -> S_sum None
  | Min _ | Max _ -> S_minmax None
  | Avg _ -> S_avg (0., 0)
  | First _ -> S_first None

(* Machine addition of two NaNs keeps one operand's sign and payload,
   and which one depends on the operand order the compiler emits, so
   two loops summing the same floats could print "nan" and "-nan". A
   NaN running sum stays that NaN instead; an addition with at most
   one NaN operand is order-free. *)
let add_float acc x = if Float.is_nan acc then acc else acc +. x

let add_values a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | _ -> Value.Float (add_float (Value.to_float a) (Value.to_float b))

let step fn state v =
  match fn, state, v with
  | Count, S_count n, _ -> S_count (n + 1)
  | Sum _, S_sum None, Some v -> S_sum (Some v)
  | Sum _, S_sum (Some acc), Some v -> S_sum (Some (add_values acc v))
  | Min _, S_minmax None, Some v -> S_minmax (Some v)
  | Min _, S_minmax (Some acc), Some v ->
    S_minmax (Some (if Value.compare v acc < 0 then v else acc))
  | Max _, S_minmax None, Some v -> S_minmax (Some v)
  | Max _, S_minmax (Some acc), Some v ->
    S_minmax (Some (if Value.compare v acc > 0 then v else acc))
  | Avg _, S_avg (sum, n), Some v ->
    S_avg (add_float sum (Value.to_float v), n + 1)
  | First _, S_first None, Some v -> S_first (Some v)
  | First _, (S_first (Some _) as s), Some _ -> s
  | _, _, None -> invalid_arg "Aggregate.step: missing input value"
  | _ -> invalid_arg "Aggregate.step: state/function mismatch"

let finish fn state =
  match fn, state with
  | Count, S_count n -> Value.Int n
  | Sum _, S_sum (Some v) -> v
  | Sum _, S_sum None -> Value.Int 0
  | (Min _ | Max _), S_minmax (Some v) -> v
  | (Min _ | Max _), S_minmax None ->
    invalid_arg "Aggregate.finish: min/max of empty group"
  | Avg _, S_avg (_, 0) -> Value.Float 0.
  | Avg _, S_avg (sum, n) -> Value.Float (sum /. float_of_int n)
  | First _, S_first (Some v) -> v
  | First _, S_first None ->
    invalid_arg "Aggregate.finish: first of empty group"
  | _ -> invalid_arg "Aggregate.finish: state/function mismatch"

let fn_to_string = function
  | Count -> "COUNT(*)"
  | Sum c -> Printf.sprintf "SUM(%s)" c
  | Min c -> Printf.sprintf "MIN(%s)" c
  | Max c -> Printf.sprintf "MAX(%s)" c
  | Avg c -> Printf.sprintf "AVG(%s)" c
  | First c -> Printf.sprintf "FIRST(%s)" c

let pp ppf t = Format.fprintf ppf "%s AS %s" (fn_to_string t.fn) t.as_name
