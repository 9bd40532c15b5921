type vec =
  | VInt of int array
  | VFloat of float array
  | VBool of bool array
  | VStr of string array
  | VConst of Value.t

type sel =
  | Dense
  | Sparse of int array

(* ---- vectorizability ----

   Mirrors [Expr.infer]'s typing rules, but refuses (instead of
   promoting) the cases where column-at-a-time evaluation could diverge
   from the row engine: mixed-type [If] branches, and int division or
   modulo in a position the row engine evaluates conditionally (the
   right operand of [And]/[Or], either branch of [If]) — a vectorized
   loop would evaluate the raising row the short-circuit skips. *)

exception Fallback

let rec scan schema ~guarded (e : Expr.t) : Value.ty =
  match e with
  | Expr.Col c -> (
    try Schema.column_type schema c with Not_found -> raise Fallback)
  | Expr.Const v -> Value.type_of v
  | Expr.Binop (op, a, b) -> (
    let ta = scan schema ~guarded a and tb = scan schema ~guarded b in
    match ta, tb with
    | Value.Tstring, Value.Tstring when op = Expr.Add -> Value.Tstring
    | (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) ->
      let ty =
        if ta = Value.Tfloat || tb = Value.Tfloat then Value.Tfloat
        else Value.Tint
      in
      (match op with
       | (Expr.Div | Expr.Mod) when ty = Value.Tint && guarded ->
         raise Fallback
       | _ -> ());
      ty
    | _ -> raise Fallback)
  | Expr.Cmp (_, a, b) ->
    let ta = scan schema ~guarded a and tb = scan schema ~guarded b in
    let comparable =
      match ta, tb with
      | (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) -> true
      | x, y -> x = y
    in
    if not comparable then raise Fallback;
    Value.Tbool
  | Expr.And (a, b) | Expr.Or (a, b) ->
    if scan schema ~guarded a <> Value.Tbool then raise Fallback;
    if scan schema ~guarded:true b <> Value.Tbool then raise Fallback;
    Value.Tbool
  | Expr.Not a ->
    if scan schema ~guarded a <> Value.Tbool then raise Fallback;
    Value.Tbool
  | Expr.If (c, a, b) ->
    if scan schema ~guarded c <> Value.Tbool then raise Fallback;
    let ta = scan schema ~guarded:true a
    and tb = scan schema ~guarded:true b in
    if ta <> tb then raise Fallback;
    ta

let vectorizable schema e =
  match scan schema ~guarded:false e with
  | (_ : Value.ty) -> true
  | exception Fallback -> false

(* ---- typed operand views ---- *)

type iv = Ia of int array | Ic of int
type fv = Fa of float array | Fc of float
type bv = Ba of bool array | Bc of bool
type sv = Sa of string array | Sc of string

let as_iv = function
  | VInt a -> Ia a
  | VConst (Value.Int x) -> Ic x
  | _ -> invalid_arg "Vector: expected int operand"

(* numeric promotion, exactly [Value.to_float] on the types that reach
   arithmetic post-typecheck *)
let as_fv = function
  | VFloat a -> Fa a
  | VConst (Value.Float x) -> Fc x
  | VInt a ->
    let n = Array.length a in
    let out = Array.create_float n in
    for i = 0 to n - 1 do
      out.(i) <- float_of_int a.(i)
    done;
    Fa out
  | VConst (Value.Int x) -> Fc (float_of_int x)
  | _ -> invalid_arg "Vector: expected numeric operand"

let as_bv = function
  | VBool a -> Ba a
  | VConst (Value.Bool x) -> Bc x
  | _ -> invalid_arg "Vector: expected bool operand"

let as_sv = function
  | VStr a -> Sa a
  | VConst (Value.Str x) -> Sc x
  | _ -> invalid_arg "Vector: expected string operand"

let is_float = function
  | VFloat _ | VConst (Value.Float _) -> true
  | _ -> false

let is_string = function
  | VStr _ | VConst (Value.Str _) -> true
  | _ -> false

(* ---- arithmetic ---- *)

let int_op : Expr.binop -> int -> int -> int = function
  | Expr.Add -> ( + )
  | Expr.Sub -> ( - )
  | Expr.Mul -> ( * )
  | Expr.Div -> ( / )
  | Expr.Mod -> ( mod )

(* float division by zero yields 0. and Mod is Float.rem, as in
   [Expr.eval_binop] *)
let float_op : Expr.binop -> float -> float -> float = function
  | Expr.Add -> ( +. )
  | Expr.Sub -> ( -. )
  | Expr.Mul -> ( *. )
  | Expr.Div -> fun a b -> if b = 0. then 0. else a /. b
  | Expr.Mod -> Float.rem

(* Every shape runs as array ⊕ array: a constant operand is spread into
   an array first, and each operator gets its own loop, so the
   per-element work is a primitive, not a closure call — without
   flambda a closure over floats would also box every value. *)

let ints ~len = function Ia a -> a | Ic x -> Array.make len x
let floats ~len = function Fa a -> a | Fc x -> Array.make len x
let bools ~len = function Ba a -> a | Bc x -> Array.make len x
let strs ~len = function Sa a -> a | Sc x -> Array.make len x

let int_binop ~len op a b =
  match a, b with
  | Ic x, Ic y -> VConst (Value.Int (int_op op x y))
  | _ ->
    let xs = ints ~len a and ys = ints ~len b in
    let o = Array.make len 0 in
    (match op with
     | Expr.Add -> for i = 0 to len - 1 do o.(i) <- xs.(i) + ys.(i) done
     | Expr.Sub -> for i = 0 to len - 1 do o.(i) <- xs.(i) - ys.(i) done
     | Expr.Mul -> for i = 0 to len - 1 do o.(i) <- xs.(i) * ys.(i) done
     | Expr.Div -> for i = 0 to len - 1 do o.(i) <- xs.(i) / ys.(i) done
     | Expr.Mod -> for i = 0 to len - 1 do o.(i) <- xs.(i) mod ys.(i) done);
    VInt o

let float_binop ~len op a b =
  match a, b with
  | Fc x, Fc y -> VConst (Value.Float (float_op op x y))
  | _ ->
    let xs = floats ~len a and ys = floats ~len b in
    let o = Array.create_float len in
    (match op with
     | Expr.Add -> for i = 0 to len - 1 do o.(i) <- xs.(i) +. ys.(i) done
     | Expr.Sub -> for i = 0 to len - 1 do o.(i) <- xs.(i) -. ys.(i) done
     | Expr.Mul -> for i = 0 to len - 1 do o.(i) <- xs.(i) *. ys.(i) done
     | Expr.Div ->
       for i = 0 to len - 1 do
         let y = ys.(i) in
         o.(i) <- (if y = 0. then 0. else xs.(i) /. y)
       done
     | Expr.Mod ->
       for i = 0 to len - 1 do o.(i) <- Float.rem xs.(i) ys.(i) done);
    VFloat o

let str_concat ~len a b =
  match a, b with
  | Sc x, Sc y -> VConst (Value.Str (x ^ y))
  | _ ->
    let xs = strs ~len a and ys = strs ~len b in
    VStr (Array.init len (fun i -> xs.(i) ^ ys.(i)))

(* ---- comparisons (Value.compare semantics per type) ---- *)

let cmp_test : Expr.cmpop -> int -> bool = function
  | Expr.Eq -> fun c -> c = 0
  | Expr.Neq -> fun c -> c <> 0
  | Expr.Lt -> fun c -> c < 0
  | Expr.Le -> fun c -> c <= 0
  | Expr.Gt -> fun c -> c > 0
  | Expr.Ge -> fun c -> c >= 0

(* [x < y] etc. on values statically typed [int] compile to primitive
   integer comparisons, with exactly [Int.compare] semantics *)
let int_cmp ~len op a b =
  match a, b with
  | Ic x, Ic y -> VConst (Value.Bool (cmp_test op (Int.compare x y)))
  | _ ->
    let xs = ints ~len a and ys = ints ~len b in
    let o = Array.make len false in
    (match op with
     | Expr.Eq -> for i = 0 to len - 1 do o.(i) <- xs.(i) = ys.(i) done
     | Expr.Neq -> for i = 0 to len - 1 do o.(i) <- xs.(i) <> ys.(i) done
     | Expr.Lt -> for i = 0 to len - 1 do o.(i) <- xs.(i) < ys.(i) done
     | Expr.Le -> for i = 0 to len - 1 do o.(i) <- xs.(i) <= ys.(i) done
     | Expr.Gt -> for i = 0 to len - 1 do o.(i) <- xs.(i) > ys.(i) done
     | Expr.Ge -> for i = 0 to len - 1 do o.(i) <- xs.(i) >= ys.(i) done);
    VBool o

(* [test] is a closure over ints, which do not box. Float.compare, not
   IEEE <: NaN equals itself and sorts deterministically, exactly as in
   [Value.compare] *)
let float_cmp ~len op a b =
  let test = cmp_test op in
  match a, b with
  | Fc x, Fc y -> VConst (Value.Bool (test (Float.compare x y)))
  | _ ->
    let xs = floats ~len a and ys = floats ~len b in
    let o = Array.make len false in
    for i = 0 to len - 1 do
      o.(i) <- test (Float.compare xs.(i) ys.(i))
    done;
    VBool o

let str_cmp ~len op a b =
  let test = cmp_test op in
  match a, b with
  | Sc x, Sc y -> VConst (Value.Bool (test (String.compare x y)))
  | _ ->
    let xs = strs ~len a and ys = strs ~len b in
    VBool (Array.init len (fun i -> test (String.compare xs.(i) ys.(i))))

let bool_cmp ~len op a b =
  let test = cmp_test op in
  match a, b with
  | Bc x, Bc y -> VConst (Value.Bool (test (Bool.compare x y)))
  | _ ->
    let xs = bools ~len a and ys = bools ~len b in
    VBool (Array.init len (fun i -> test (Bool.compare xs.(i) ys.(i))))

(* ---- booleans ---- *)

let bool_binop ~len ~conj a b =
  match a, b with
  | Bc x, Bc y -> VConst (Value.Bool (if conj then x && y else x || y))
  | _ ->
    let xs = bools ~len a and ys = bools ~len b in
    let o = Array.make len false in
    if conj then for i = 0 to len - 1 do o.(i) <- xs.(i) && ys.(i) done
    else for i = 0 to len - 1 do o.(i) <- xs.(i) || ys.(i) done;
    VBool o

(* ---- column reads through the selection ---- *)

let read_column (col : Column.t) sel =
  let col =
    match sel with
    | Dense -> col
    | Sparse idx -> Column.gather col idx
  in
  match col.Column.data with
  | Column.Ints a -> VInt a
  | Column.Floats a -> VFloat a
  | Column.Bools a -> VBool a
  | Column.Dict { codes; dict } -> VStr (Array.map (Array.get dict) codes)

(* ---- two columns read through row indexes ----

   [col ⊕ col] over a view: the loop reads both operands through their
   indexes, where gathering each first would take two more passes. *)

type indexed_pair =
  | Float_pair of float array * int array * float array * int array
  | Int_pair of int array * int array * int array * int array
  | No_pair

let float_binop_at op xs ix ys iy =
  let n = Array.length ix in
  let o = Array.create_float n in
  (match op with
   | Expr.Add -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) +. ys.(iy.(k)) done
   | Expr.Sub -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) -. ys.(iy.(k)) done
   | Expr.Mul -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) *. ys.(iy.(k)) done
   | Expr.Div ->
     for k = 0 to n - 1 do
       let y = ys.(iy.(k)) in
       o.(k) <- (if y = 0. then 0. else xs.(ix.(k)) /. y)
     done
   | Expr.Mod ->
     for k = 0 to n - 1 do o.(k) <- Float.rem xs.(ix.(k)) ys.(iy.(k)) done);
  VFloat o

let int_binop_at op (xs : int array) ix (ys : int array) iy =
  let n = Array.length ix in
  let o = Array.make n 0 in
  (match op with
   | Expr.Add -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) + ys.(iy.(k)) done
   | Expr.Sub -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) - ys.(iy.(k)) done
   | Expr.Mul -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) * ys.(iy.(k)) done
   | Expr.Div -> for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) / ys.(iy.(k)) done
   | Expr.Mod ->
     for k = 0 to n - 1 do o.(k) <- xs.(ix.(k)) mod ys.(iy.(k)) done);
  VInt o

let float_cmp_at op xs ix ys iy =
  let test = cmp_test op in
  let n = Array.length ix in
  let o = Array.make n false in
  for k = 0 to n - 1 do
    o.(k) <- test (Float.compare xs.(ix.(k)) ys.(iy.(k)))
  done;
  VBool o

let int_cmp_at op (xs : int array) ix (ys : int array) iy =
  let test = cmp_test op in
  let n = Array.length ix in
  let o = Array.make n false in
  for k = 0 to n - 1 do
    o.(k) <- test (Int.compare xs.(ix.(k)) ys.(iy.(k)))
  done;
  VBool o

(* ---- evaluation ---- *)

let eval schema cols ~len ~sel e =
  let index_of c =
    try Schema.index_of schema c
    with Not_found ->
      raise (Expr.Type_error (Printf.sprintf "unknown column %S" c))
  in
  let pair a b =
    match (a : Expr.t), (b : Expr.t) with
    | Expr.Col x, Expr.Col y -> (
      let i = index_of x and j = index_of y in
      match
        (cols.(i) : Column.t).Column.data, sel i,
        (cols.(j) : Column.t).Column.data, sel j
      with
      | Column.Floats xs, Sparse ix, Column.Floats ys, Sparse iy ->
        Float_pair (xs, ix, ys, iy)
      | Column.Ints xs, Sparse ix, Column.Ints ys, Sparse iy ->
        Int_pair (xs, ix, ys, iy)
      | _ -> No_pair)
    | _ -> No_pair
  in
  (* a subexpression that occurs twice, like [(x - c) * (x - c)], is
     computed (or a column read) once; results are never mutated, so
     sharing is safe *)
  let memo = ref [] in
  let rec go (e : Expr.t) : vec =
    match e with
    | Expr.Const v -> VConst v
    | _ -> (
      match List.find_opt (fun (e', _) -> compare e e' = 0) !memo with
      | Some (_, v) -> v
      | None ->
        let v = compute e in
        memo := (e, v) :: !memo;
        v)
  and compute : Expr.t -> vec = function
    | Expr.Const v -> VConst v
    | Expr.Col c ->
      let i = index_of c in
      read_column cols.(i) (sel i)
    | Expr.Binop (op, a, b) -> (
      match pair a b with
      | Float_pair (xs, ix, ys, iy) -> float_binop_at op xs ix ys iy
      | Int_pair (xs, ix, ys, iy) -> int_binop_at op xs ix ys iy
      | No_pair ->
        let va = go a and vb = go b in
        if is_string va || is_string vb then
          str_concat ~len (as_sv va) (as_sv vb)
        else if is_float va || is_float vb then
          float_binop ~len op (as_fv va) (as_fv vb)
        else int_binop ~len op (as_iv va) (as_iv vb))
    | Expr.Cmp (op, a, b) -> (
      match pair a b with
      | Float_pair (xs, ix, ys, iy) -> float_cmp_at op xs ix ys iy
      | Int_pair (xs, ix, ys, iy) -> int_cmp_at op xs ix ys iy
      | No_pair -> (
        let va = go a and vb = go b in
        if is_string va || is_string vb then
          str_cmp ~len op (as_sv va) (as_sv vb)
        else
          match va, vb with
          | (VBool _ | VConst (Value.Bool _)), _ ->
            bool_cmp ~len op (as_bv va) (as_bv vb)
          | _ when is_float va || is_float vb ->
            float_cmp ~len op (as_fv va) (as_fv vb)
          | _ -> int_cmp ~len op (as_iv va) (as_iv vb)))
    | Expr.And (a, b) ->
      bool_binop ~len ~conj:true (as_bv (go a)) (as_bv (go b))
    | Expr.Or (a, b) ->
      bool_binop ~len ~conj:false (as_bv (go a)) (as_bv (go b))
    | Expr.Not a -> (
      match as_bv (go a) with
      | Bc x -> VConst (Value.Bool (not x))
      | Ba xs -> VBool (Array.map not xs))
    | Expr.If (c, a, b) -> (
      match as_bv (go c) with
      | Bc true -> go a
      | Bc false -> go b
      | Ba cond -> (
        let va = go a and vb = go b in
        if is_string va || is_string vb then begin
          let x = as_sv va and y = as_sv vb in
          let at v i = match v with Sa a -> a.(i) | Sc s -> s in
          VStr (Array.init len (fun i -> if cond.(i) then at x i else at y i))
        end
        else if is_float va || is_float vb then begin
          let x = as_fv va and y = as_fv vb in
          let at v i = match v with Fa a -> a.(i) | Fc s -> s in
          VFloat
            (Array.init len (fun i -> if cond.(i) then at x i else at y i))
        end
        else
          match va, vb with
          | (VBool _ | VConst (Value.Bool _)), _ ->
            let x = as_bv va and y = as_bv vb in
            let at v i = match v with Ba a -> a.(i) | Bc s -> s in
            VBool
              (Array.init len (fun i -> if cond.(i) then at x i else at y i))
          | _ ->
            let x = as_iv va and y = as_iv vb in
            let at v i = match v with Ia a -> a.(i) | Ic s -> s in
            VInt
              (Array.init len (fun i -> if cond.(i) then at x i else at y i))))
  in
  go e

(* ---- materialization ---- *)

let to_column ~length = function
  | VInt a -> Column.make (Column.Ints a)
  | VFloat a -> Column.make (Column.Floats a)
  | VBool a -> Column.make (Column.Bools a)
  | VStr a -> Column.of_strings a
  | VConst (Value.Int x) -> Column.make (Column.Ints (Array.make length x))
  | VConst (Value.Float x) ->
    Column.make (Column.Floats (Array.make length x))
  | VConst (Value.Bool x) ->
    Column.make (Column.Bools (Array.make length x))
  | VConst (Value.Str s) -> Column.of_strings (Array.make length s)

let to_mask ~length = function
  | VBool a -> a
  | VConst (Value.Bool b) -> Array.make length b
  | _ -> invalid_arg "Vector.to_mask: not a boolean vector"
