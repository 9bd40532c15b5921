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

(* ---- programs ----

   A program is the expression's distinct non-constant subexpressions,
   one slot each, in evaluation order; an operand names a column (read
   through its selection inside the consuming loop) or an earlier slot.
   A constant operand is a [Fill] slot, written only when its buffer is
   (re)allocated; a subexpression without columns is folded at compile
   time into the row engine's value. *)

type operand =
  | K of Value.t  (** a constant: only ever a program's root *)
  | C of int  (** a schema column *)
  | S of int  (** an earlier slot *)

type instr =
  | Fill of Value.t
  | Gather of int  (** a root that is a bare column *)
  | Promote of operand  (** int to float, as [Value.to_float] *)
  | Arith of Expr.binop * operand * operand  (** operands of the slot's type *)
  | Concat of operand * operand
  | Compare of Expr.cmpop * Value.ty * operand * operand
  | Conj of operand * operand
  | Disj of operand * operand
  | Neg of operand
  | Cond of operand * operand * operand

type slot = {
  instr : instr;
  sty : Value.ty;
  mutable buf : vec;  (** scratch of exactly the last run's length *)
}

type program = {
  slots : slot array;
  root : operand;
  ty : Value.ty;
  raises : bool;  (** a folded constant divides an int by zero *)
}

let ty p = p.ty

let fresh ty len =
  match (ty : Value.ty) with
  | Value.Tint -> VInt (Array.make len 0)
  | Value.Tfloat -> VFloat (Array.create_float len)
  | Value.Tbool -> VBool (Array.make len false)
  | Value.Tstring -> VStr (Array.make len "")

(* a CSE key: constants are one slot only when their bits agree, so
   [x + 0.0] and [x + -0.0] stay apart. Only a [Fill] holds a float:
   every other instruction's operands are columns or slots. *)
module Instr_key = Hashtbl.Make (struct
  type t = instr

  let equal a b =
    match a, b with
    | Fill (Value.Float x), Fill (Value.Float y) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Fill (Value.Float _), _ | _, Fill (Value.Float _) -> false
    | _ -> a = b

  let hash = function
    | Fill (Value.Float x) -> Hashtbl.hash (Int64.bits_of_float x)
    | i -> Hashtbl.hash i
end)

let default_of : Value.ty -> Value.t = function
  | Value.Tint -> Value.Int 0
  | Value.Tfloat -> Value.Float 0.
  | Value.Tbool -> Value.Bool false
  | Value.Tstring -> Value.Str ""

(* Whether each subexpression names a column, computed once bottom-up:
   [sub] follows the expression's operands in order. *)
type shape = {
  cols : bool;
  sub : shape array;
}

let rec shape (e : Expr.t) =
  let node sub = { cols = Array.exists (fun s -> s.cols) sub; sub } in
  match e with
  | Expr.Col _ -> { cols = true; sub = [||] }
  | Expr.Const _ -> { cols = false; sub = [||] }
  | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b)
    ->
    node [| shape a; shape b |]
  | Expr.Not a -> node [| shape a |]
  | Expr.If (c, a, b) -> node [| shape c; shape a; shape b |]

let build schema e =
  let slots = ref [] and count = ref 0 and raises = ref false in
  let seen = Instr_key.create 16 in
  let add instr sty =
    match Instr_key.find_opt seen instr with
    | Some j -> S j
    | None ->
      slots := { instr; sty; buf = fresh sty 0 } :: !slots;
      Instr_key.add seen instr !count;
      incr count;
      S (!count - 1)
  in
  let operand = function K v -> add (Fill v) (Value.type_of v) | o -> o in
  let as_float = function
    | K (Value.Int x), _ -> K (Value.Float (float_of_int x))
    | o, Value.Tint -> add (Promote o) Value.Tfloat
    | o, _ -> o
  in
  let rec node (e : Expr.t) (sh : shape) : operand * Value.ty =
    match e with
    | Expr.Const v -> (K v, Value.type_of v)
    | Expr.Col c -> (C (Schema.index_of schema c), Schema.column_type schema c)
    | _ when not sh.cols -> (
      match Expr.eval schema [||] e with
      | v -> (K v, Value.type_of v)
      | exception Division_by_zero ->
        (* unguarded, so every row raises: a run over rows does too *)
        raises := true;
        let ty = Expr.infer schema e in
        (K (default_of ty), ty))
    | Expr.Binop (op, a, b) ->
      let ((oa, ta) as na) = node a sh.sub.(0)
      and ((ob, tb) as nb) = node b sh.sub.(1) in
      if ta = Value.Tstring then
        (add (Concat (operand oa, operand ob)) ta, ta)
      else if ta = Value.Tfloat || tb = Value.Tfloat then
        ( add (Arith (op, operand (as_float na), operand (as_float nb)))
            Value.Tfloat,
          Value.Tfloat )
      else (add (Arith (op, operand oa, operand ob)) Value.Tint, Value.Tint)
    | Expr.Cmp (op, a, b) ->
      let ((oa, ta) as na) = node a sh.sub.(0)
      and ((ob, tb) as nb) = node b sh.sub.(1) in
      let ty, oa, ob =
        if ta = tb then (ta, oa, ob)
        else (Value.Tfloat, as_float na, as_float nb)
      in
      (add (Compare (op, ty, operand oa, operand ob)) Value.Tbool, Value.Tbool)
    | Expr.And (a, b) ->
      let oa = operand (fst (node a sh.sub.(0)))
      and ob = operand (fst (node b sh.sub.(1))) in
      (add (Conj (oa, ob)) Value.Tbool, Value.Tbool)
    | Expr.Or (a, b) ->
      let oa = operand (fst (node a sh.sub.(0)))
      and ob = operand (fst (node b sh.sub.(1))) in
      (add (Disj (oa, ob)) Value.Tbool, Value.Tbool)
    | Expr.Not a ->
      (add (Neg (operand (fst (node a sh.sub.(0))))) Value.Tbool, Value.Tbool)
    | Expr.If (c, a, b) -> (
      match fst (node c sh.sub.(0)) with
      | K (Value.Bool true) -> node a sh.sub.(1)
      | K (Value.Bool false) -> node b sh.sub.(2)
      | oc ->
        let oa, ty = node a sh.sub.(1) and ob, _ = node b sh.sub.(2) in
        (add (Cond (operand oc, operand oa, operand ob)) ty, ty))
  in
  let root, ty = node e (shape e) in
  let root = match root with C i -> add (Gather i) ty | o -> o in
  { slots = Array.of_list (List.rev !slots); root; ty; raises = !raises }

let compile schema e =
  match scan schema ~guarded:false e with
  | (_ : Value.ty) -> Some (build schema e)
  | exception Fallback -> None

(* ---- loops ----

   An operand is a base array and the index it is read through: its
   selection's, or [dense] for a slot or a row-aligned column, read
   directly. The guard rule: a loop first checks in O(1) that every
   array it touches without a bounds check holds at least [len] slots:
   its output, a dense operand's base, an indexed operand's index. A
   read through an index ([xs.(ix.(k))]) keeps its check. The
   arithmetic and comparison loops of two dense or two indexed operands
   are written out per operator: without flambda a closure over floats
   boxes every value, while the inlined [*_at] and [*_op] helpers below
   keep floats unboxed but branch on every element. *)

(* the index of a dense operand; an empty index never reaches a loop,
   which runs only for [len > 0] *)
let dense : int array = [||]

let guard len a =
  if Array.length a < len then invalid_arg "Vector.run: array shorter than len"

let guard_operand len xs ix = if ix == dense then guard len xs else guard len ix

(* slot [k] of an operand that passed [guard_operand] *)
let[@inline] int_at (xs : int array) ix k =
  if ix == dense then Array.unsafe_get xs k else xs.(Array.unsafe_get ix k)

let[@inline] float_at (xs : float array) ix k =
  if ix == dense then Array.unsafe_get xs k else xs.(Array.unsafe_get ix k)

let[@inline] bool_at (xs : bool array) ix k =
  if ix == dense then Array.unsafe_get xs k else xs.(Array.unsafe_get ix k)

let[@inline] int_op (op : Expr.binop) (x : int) y =
  match op with
  | Expr.Add -> x + y
  | Expr.Sub -> x - y
  | Expr.Mul -> x * y
  | Expr.Div -> x / y
  | Expr.Mod -> x mod y

(* float division by zero yields 0. and Mod is Float.rem, as in
   [Expr.eval_binop] *)
let[@inline] float_op (op : Expr.binop) (x : float) y =
  match op with
  | Expr.Add -> x +. y
  | Expr.Sub -> x -. y
  | Expr.Mul -> x *. y
  | Expr.Div -> if y = 0. then 0. else x /. y
  | Expr.Mod -> Float.rem x y

let int_arith op (o : int array) len ((xs : int array), ix)
    ((ys : int array), iy) =
  guard len o;
  guard_operand len xs ix;
  guard_operand len ys iy;
  if ix == dense && iy == dense then
    match (op : Expr.binop) with
    | Expr.Add ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k + Array.unsafe_get ys k)
      done
    | Expr.Sub ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k - Array.unsafe_get ys k)
      done
    | Expr.Mul ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k * Array.unsafe_get ys k)
      done
    | Expr.Div ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k / Array.unsafe_get ys k)
      done
    | Expr.Mod ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k mod Array.unsafe_get ys k)
      done
  else if ix != dense && iy != dense then
    match op with
    | Expr.Add ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) + ys.(Array.unsafe_get iy k))
      done
    | Expr.Sub ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) - ys.(Array.unsafe_get iy k))
      done
    | Expr.Mul ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) * ys.(Array.unsafe_get iy k))
      done
    | Expr.Div ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) / ys.(Array.unsafe_get iy k))
      done
    | Expr.Mod ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) mod ys.(Array.unsafe_get iy k))
      done
  else
    (* a dense operand beside an indexed one *)
    for k = 0 to len - 1 do
      Array.unsafe_set o k (int_op op (int_at xs ix k) (int_at ys iy k))
    done

let float_arith op (o : float array) len ((xs : float array), ix)
    ((ys : float array), iy) =
  guard len o;
  guard_operand len xs ix;
  guard_operand len ys iy;
  if ix == dense && iy == dense then
    match (op : Expr.binop) with
    | Expr.Add ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k +. Array.unsafe_get ys k)
      done
    | Expr.Sub ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k -. Array.unsafe_get ys k)
      done
    | Expr.Mul ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k (Array.unsafe_get xs k *. Array.unsafe_get ys k)
      done
    | Expr.Div ->
      for k = 0 to len - 1 do
        let y = Array.unsafe_get ys k in
        Array.unsafe_set o k
          (if y = 0. then 0. else Array.unsafe_get xs k /. y)
      done
    | Expr.Mod ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (Float.rem (Array.unsafe_get xs k) (Array.unsafe_get ys k))
      done
  else if ix != dense && iy != dense then
    match op with
    | Expr.Add ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) +. ys.(Array.unsafe_get iy k))
      done
    | Expr.Sub ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) -. ys.(Array.unsafe_get iy k))
      done
    | Expr.Mul ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (xs.(Array.unsafe_get ix k) *. ys.(Array.unsafe_get iy k))
      done
    | Expr.Div ->
      for k = 0 to len - 1 do
        let y = ys.(Array.unsafe_get iy k) in
        Array.unsafe_set o k
          (if y = 0. then 0. else xs.(Array.unsafe_get ix k) /. y)
      done
    | Expr.Mod ->
      for k = 0 to len - 1 do
        Array.unsafe_set o k
          (Float.rem xs.(Array.unsafe_get ix k) ys.(Array.unsafe_get iy k))
      done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set o k (float_op op (float_at xs ix k) (float_at ys iy k))
    done

let promote (o : float array) len ((xs : int array), ix) =
  guard len o;
  guard_operand len xs ix;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (float_of_int (int_at xs ix k))
  done

(* ---- comparisons: [Value.compare] per type ---- *)

let cmp_test : Expr.cmpop -> int -> bool = function
  | Expr.Eq -> fun c -> c = 0
  | Expr.Neq -> fun c -> c <> 0
  | Expr.Lt -> fun c -> c < 0
  | Expr.Le -> fun c -> c <= 0
  | Expr.Gt -> fun c -> c > 0
  | Expr.Ge -> fun c -> c >= 0

(* [Float.compare], with the ordered cases inline: NaN equals itself
   and sorts below every float, as in [Value.compare] *)
let[@inline] compare_floats (x : float) y =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else Float.compare x y

(* [test] is a closure over ints, which do not box *)
let int_compare op (o : bool array) len ((xs : int array), ix)
    ((ys : int array), iy) =
  let test = cmp_test op in
  guard len o;
  guard_operand len xs ix;
  guard_operand len ys iy;
  if ix == dense && iy == dense then
    for k = 0 to len - 1 do
      Array.unsafe_set o k
        (test (Int.compare (Array.unsafe_get xs k) (Array.unsafe_get ys k)))
    done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set o k
        (test (Int.compare (int_at xs ix k) (int_at ys iy k)))
    done

let float_compare op (o : bool array) len ((xs : float array), ix)
    ((ys : float array), iy) =
  let test = cmp_test op in
  guard len o;
  guard_operand len xs ix;
  guard_operand len ys iy;
  if ix == dense && iy == dense then
    for k = 0 to len - 1 do
      Array.unsafe_set o k
        (test (compare_floats (Array.unsafe_get xs k) (Array.unsafe_get ys k)))
    done
  else if ix != dense && iy != dense then
    for k = 0 to len - 1 do
      Array.unsafe_set o k
        (test
           (compare_floats xs.(Array.unsafe_get ix k)
              ys.(Array.unsafe_get iy k)))
    done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set o k
        (test (compare_floats (float_at xs ix k) (float_at ys iy k)))
    done

let bool_compare op (o : bool array) len ((xs : bool array), ix)
    ((ys : bool array), iy) =
  let test = cmp_test op in
  guard len o;
  guard_operand len xs ix;
  guard_operand len ys iy;
  for k = 0 to len - 1 do
    Array.unsafe_set o k
      (test (Bool.compare (bool_at xs ix k) (bool_at ys iy k)))
  done

(* strings are boxed either way: their operands are read through a
   closure *)
let str_compare op (o : bool array) len x y =
  let test = cmp_test op in
  guard len o;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (test (String.compare (x k) (y k)))
  done

let concat (o : string array) len x y =
  guard len o;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (x k ^ y k)
  done

(* ---- booleans ---- *)

let bool_binop ~conj (o : bool array) len ((xs : bool array), ix)
    ((ys : bool array), iy) =
  guard len o;
  guard_operand len xs ix;
  guard_operand len ys iy;
  if conj then
    for k = 0 to len - 1 do
      Array.unsafe_set o k (bool_at xs ix k && bool_at ys iy k)
    done
  else
    for k = 0 to len - 1 do
      Array.unsafe_set o k (bool_at xs ix k || bool_at ys iy k)
    done

let neg (o : bool array) len ((xs : bool array), ix) =
  guard len o;
  guard_operand len xs ix;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (not (bool_at xs ix k))
  done

(* ---- conditionals and gathers ---- *)

let cond_ints (o : int array) len ((cs : bool array), ic)
    ((xs : int array), ix) ((ys : int array), iy) =
  guard len o;
  guard_operand len cs ic;
  guard_operand len xs ix;
  guard_operand len ys iy;
  for k = 0 to len - 1 do
    Array.unsafe_set o k
      (if bool_at cs ic k then int_at xs ix k else int_at ys iy k)
  done

let cond_floats (o : float array) len ((cs : bool array), ic)
    ((xs : float array), ix) ((ys : float array), iy) =
  guard len o;
  guard_operand len cs ic;
  guard_operand len xs ix;
  guard_operand len ys iy;
  for k = 0 to len - 1 do
    Array.unsafe_set o k
      (if bool_at cs ic k then float_at xs ix k else float_at ys iy k)
  done

let cond_bools (o : bool array) len ((cs : bool array), ic)
    ((xs : bool array), ix) ((ys : bool array), iy) =
  guard len o;
  guard_operand len cs ic;
  guard_operand len xs ix;
  guard_operand len ys iy;
  for k = 0 to len - 1 do
    Array.unsafe_set o k
      (if bool_at cs ic k then bool_at xs ix k else bool_at ys iy k)
  done

let cond_strs (o : string array) len ((cs : bool array), ic) x y =
  guard len o;
  guard_operand len cs ic;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (if bool_at cs ic k then x k else y k)
  done

let gather_ints (o : int array) len ((xs : int array), ix) =
  guard len o;
  guard_operand len xs ix;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (int_at xs ix k)
  done

let gather_floats (o : float array) len ((xs : float array), ix) =
  guard len o;
  guard_operand len xs ix;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (float_at xs ix k)
  done

let gather_bools (o : bool array) len ((xs : bool array), ix) =
  guard len o;
  guard_operand len xs ix;
  for k = 0 to len - 1 do
    Array.unsafe_set o k (bool_at xs ix k)
  done

(* ---- running a program ---- *)

let mismatch () = invalid_arg "Vector.run: a column does not match the schema"

let index sel i = match sel i with Dense -> dense | Sparse ix -> ix

let ints p (cols : Column.t array) sel = function
  | S j -> (
    match p.slots.(j).buf with VInt a -> (a, dense) | _ -> assert false)
  | C i -> (
    match cols.(i).Column.data with
    | Column.Ints a -> (a, index sel i)
    | _ -> mismatch ())
  | K _ -> assert false

let floats p (cols : Column.t array) sel = function
  | S j -> (
    match p.slots.(j).buf with VFloat a -> (a, dense) | _ -> assert false)
  | C i -> (
    match cols.(i).Column.data with
    | Column.Floats a -> (a, index sel i)
    | _ -> mismatch ())
  | K _ -> assert false

let bools p (cols : Column.t array) sel = function
  | S j -> (
    match p.slots.(j).buf with VBool a -> (a, dense) | _ -> assert false)
  | C i -> (
    match cols.(i).Column.data with
    | Column.Bools a -> (a, index sel i)
    | _ -> mismatch ())
  | K _ -> assert false

let strs p (cols : Column.t array) sel = function
  | S j -> (
    match p.slots.(j).buf with
    | VStr a -> fun k -> a.(k)
    | _ -> assert false)
  | C i -> (
    match cols.(i).Column.data with
    | Column.Dict { codes; dict } ->
      let ix = index sel i in
      if ix == dense then fun k -> dict.(codes.(k))
      else fun k -> dict.(codes.(ix.(k)))
    | _ -> mismatch ())
  | K _ -> assert false

let length = function
  | VInt a -> Array.length a
  | VFloat a -> Array.length a
  | VBool a -> Array.length a
  | VStr a -> Array.length a
  | VConst _ -> -1

let exec p cols sel len s =
  match s.instr with
  | Fill v ->
    (* written only when the length changes *)
    if length s.buf <> len then
      s.buf <-
        (match v with
         | Value.Int x -> VInt (Array.make len x)
         | Value.Float x -> VFloat (Array.make len x)
         | Value.Bool x -> VBool (Array.make len x)
         | Value.Str x -> VStr (Array.make len x))
  | instr -> (
    if length s.buf <> len then s.buf <- fresh s.sty len;
    match instr, s.buf with
    | Gather i, VInt o -> gather_ints o len (ints p cols sel (C i))
    | Gather i, VFloat o -> gather_floats o len (floats p cols sel (C i))
    | Gather i, VBool o -> gather_bools o len (bools p cols sel (C i))
    | Gather i, VStr o ->
      let x = strs p cols sel (C i) in
      guard len o;
      for k = 0 to len - 1 do
        Array.unsafe_set o k (x k)
      done
    | Promote a, VFloat o -> promote o len (ints p cols sel a)
    | Arith (op, a, b), VInt o ->
      int_arith op o len (ints p cols sel a) (ints p cols sel b)
    | Arith (op, a, b), VFloat o ->
      float_arith op o len (floats p cols sel a) (floats p cols sel b)
    | Concat (a, b), VStr o ->
      concat o len (strs p cols sel a) (strs p cols sel b)
    | Compare (op, Value.Tint, a, b), VBool o ->
      int_compare op o len (ints p cols sel a) (ints p cols sel b)
    | Compare (op, Value.Tfloat, a, b), VBool o ->
      float_compare op o len (floats p cols sel a) (floats p cols sel b)
    | Compare (op, Value.Tbool, a, b), VBool o ->
      bool_compare op o len (bools p cols sel a) (bools p cols sel b)
    | Compare (op, Value.Tstring, a, b), VBool o ->
      str_compare op o len (strs p cols sel a) (strs p cols sel b)
    | Conj (a, b), VBool o ->
      bool_binop ~conj:true o len (bools p cols sel a) (bools p cols sel b)
    | Disj (a, b), VBool o ->
      bool_binop ~conj:false o len (bools p cols sel a) (bools p cols sel b)
    | Neg a, VBool o -> neg o len (bools p cols sel a)
    | Cond (c, a, b), VInt o ->
      cond_ints o len (bools p cols sel c) (ints p cols sel a)
        (ints p cols sel b)
    | Cond (c, a, b), VFloat o ->
      cond_floats o len (bools p cols sel c) (floats p cols sel a)
        (floats p cols sel b)
    | Cond (c, a, b), VBool o ->
      cond_bools o len (bools p cols sel c) (bools p cols sel a)
        (bools p cols sel b)
    | Cond (c, a, b), VStr o ->
      cond_strs o len (bools p cols sel c) (strs p cols sel a)
        (strs p cols sel b)
    | _ -> assert false)

let run p cols ~len ~sel =
  if len > 0 then begin
    if p.raises then raise Division_by_zero;
    for j = 0 to Array.length p.slots - 1 do
      exec p cols sel len p.slots.(j)
    done
  end;
  match p.root with
  | K v -> VConst v
  | S _ when len = 0 -> fresh p.ty 0
  | S j -> p.slots.(j).buf
  | C _ -> assert false

(* the root's buffer leaves the program with the result: the next run
   writes a new one *)
let run_kept p cols ~len ~sel =
  let v = run p cols ~len ~sel in
  (match p.root with S j -> p.slots.(j).buf <- fresh p.ty 0 | _ -> ());
  v

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
