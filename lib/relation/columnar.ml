(* Vectorized kernels. Every path here must be byte-identical to the
   row kernel it replaces; anything that cannot be made so returns
   [None] and the caller runs the row path. See columnar.mli for the
   fallback catalogue and docs/columnar.md for the design. *)

let par_threshold = 512

let mark name = Obs.Metrics.incr Obs.Metrics.default ("kernel.columnar." ^ name)

(* ---- growable scratch buffers (amortized O(1) push) ---- *)

type ibuf = {
  mutable ia : int array;
  mutable ilen : int;
}

let ibuf () = { ia = Array.make 64 0; ilen = 0 }

let ipush b x =
  if b.ilen = Array.length b.ia then begin
    let bigger = Array.make (2 * b.ilen) 0 in
    Array.blit b.ia 0 bigger 0 b.ilen;
    b.ia <- bigger
  end;
  b.ia.(b.ilen) <- x;
  b.ilen <- b.ilen + 1

let icontents b = Array.sub b.ia 0 b.ilen

(* ---- SELECT ---- *)

let mask_to_indices ~start mask =
  let n = Array.length mask in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then begin
      out.(!k) <- start + i;
      incr k
    end
  done;
  out

(* single-pass filter for the overwhelmingly common predicate shape
   [col ⊕ const] over an int column: no boolean mask, no intermediate
   vectors — one tight loop pushing surviving row indices. Semantics
   are [Int.compare], which primitive int comparison matches. *)
let fast_int_filter (a : int array) op k buf ~start ~len =
  let stop = start + len - 1 in
  (match (op : Expr.cmpop) with
   | Expr.Eq ->
     for i = start to stop do
       if a.(i) = k then ipush buf i
     done
   | Expr.Neq ->
     for i = start to stop do
       if a.(i) <> k then ipush buf i
     done
   | Expr.Lt ->
     for i = start to stop do
       if a.(i) < k then ipush buf i
     done
   | Expr.Le ->
     for i = start to stop do
       if a.(i) <= k then ipush buf i
     done
   | Expr.Gt ->
     for i = start to stop do
       if a.(i) > k then ipush buf i
     done
   | Expr.Ge ->
     for i = start to stop do
       if a.(i) >= k then ipush buf i
     done);
  icontents buf

let flip_cmp : Expr.cmpop -> Expr.cmpop = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

let try_fast_indices schema cols pred ~start ~len =
  let int_col c =
    match Schema.index_of schema c with
    | i -> (
      match cols.(i).Column.data with
      | Column.Ints a -> Some a
      | _ -> None)
    | exception Not_found -> None
  in
  match (pred : Expr.t) with
  | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) ->
    Option.map
      (fun a -> fast_int_filter a op k (ibuf ()) ~start ~len)
      (int_col c)
  | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) ->
    Option.map
      (fun a -> fast_int_filter a (flip_cmp op) k (ibuf ()) ~start ~len)
      (int_col c)
  | _ -> None

let select_range schema cols pred ~start ~len =
  match try_fast_indices schema cols pred ~start ~len with
  | Some idx -> idx
  | None ->
    let mask =
      Vector.to_mask ~length:len
        (Vector.eval schema cols ~sel:(Vector.Dense (start, len)) pred)
    in
    mask_to_indices ~start mask

let try_select t pred =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    if not (Vector.vectorizable schema pred) then None
    else if Expr.infer schema pred <> Value.Tbool then
      (* row path raises per live row; let it *)
      None
    else begin
      mark "select";
      let n = Table.row_count t in
      if n = 0 then Some t
      else begin
        let cols = Table.columns t in
        let jobs = Pool.effective_jobs () in
        let idx =
          if jobs > 1 && n >= par_threshold then
            Array.concat
              (Array.to_list
                 (Pool.run
                    (Array.map
                       (fun (start, len) () ->
                          select_range schema cols pred ~start ~len)
                       (Pool.chunks ~jobs n))))
          else select_range schema cols pred ~start:0 ~len:n
        in
        if Array.length idx = n then
          (* nothing filtered: share the input columns outright *)
          Some (Table.of_columns schema cols)
        else
          Some
            (Table.of_columns schema
               (Array.map (fun c -> Column.gather c idx) cols))
      end
    end
  end

(* ---- PROJECT ---- *)

let try_project t names =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    (* same Not_found as the row path on unknown columns *)
    let idxs = List.map (Schema.index_of schema) names in
    let out_schema = Schema.restrict schema names in
    mark "project";
    let cols = Table.columns t in
    (* columns are immutable, so the projection shares them: zero copy *)
    Some
      (Table.of_columns out_schema
         (Array.of_list (List.map (fun i -> cols.(i)) idxs)))
  end

(* ---- MAP ---- *)

let empty_column ty = Column.Builder.to_column (Column.Builder.create ty)

let try_map_column t ~target ~expr =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    if not (Vector.vectorizable schema expr) then None
    else begin
      mark "map";
      let ty = Expr.infer schema expr in
      let out_schema = Schema.with_column schema { Schema.name = target; ty } in
      let replace = Schema.mem schema target in
      let n = Table.row_count t in
      let cols = Table.columns t in
      let new_col =
        if n = 0 then empty_column ty
        else begin
          let jobs = Pool.effective_jobs () in
          if jobs > 1 && n >= par_threshold then
            Column.concat
              (Array.to_list
                 (Pool.run
                    (Array.map
                       (fun (start, len) () ->
                          Vector.to_column ~length:len
                            (Vector.eval schema cols
                               ~sel:(Vector.Dense (start, len)) expr))
                       (Pool.chunks ~jobs n))))
          else
            Vector.to_column ~length:n
              (Vector.eval schema cols ~sel:(Vector.Dense (0, n)) expr)
        end
      in
      let out_cols =
        if replace then begin
          let out = Array.copy cols in
          out.(Schema.index_of schema target) <- new_col;
          out
        end
        else Array.append cols [| new_col |]
      in
      Some (Table.of_columns out_schema out_cols)
    end
  end

(* ---- dense key codes ----

   [dense_codes a] renumbers an int key column by first appearance:
   row i gets a code below [count], equal codes iff equal keys, and
   code c is the c-th distinct key in row order. Narrow key ranges
   index a slot array directly; wide ones go through an
   open-addressing table. The returned index also answers lookups of
   keys from another column (a join's probe side): -1 for a key the
   column never holds, which no code can be. *)

type key_index =
  | Slots of {
      lo : int;
      hi : int;
      slot : int array;  (** [slot.(k - lo)] = code of [k], or -1 *)
    }
  | Probe of {
      keys : int array;
      ids : int array;  (** code of the key in [keys] at the same slot, or -1 *)
      mask : int;
    }

(* spread high key bits into the low ones the probe mask keeps *)
let mix k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let rec pow2_above n p = if p >= n then p else pow2_above n (2 * p)

let dense_codes (a : int array) =
  let n = Array.length a in
  let codes = Array.make n 0 in
  let next = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let k = a.(i) in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  let lo = !lo and hi = !hi in
  (* [hi - lo] wraps negative when the true span exceeds max_int *)
  let span = hi - lo in
  let index =
    if n > 0 && span >= 0 && span < max 4096 (2 * n) then begin
      let slot = Array.make (span + 1) (-1) in
      for i = 0 to n - 1 do
        let s = a.(i) - lo in
        let c = slot.(s) in
        if c >= 0 then codes.(i) <- c
        else begin
          slot.(s) <- !next;
          codes.(i) <- !next;
          incr next
        end
      done;
      Slots { lo; hi; slot }
    end
    else begin
      let cap = pow2_above (2 * n) 16 in
      let mask = cap - 1 in
      let keys = Array.make cap 0 and ids = Array.make cap (-1) in
      for i = 0 to n - 1 do
        let k = a.(i) in
        let h = ref (mix k land mask) in
        while ids.(!h) >= 0 && keys.(!h) <> k do
          h := (!h + 1) land mask
        done;
        if ids.(!h) < 0 then begin
          keys.(!h) <- k;
          ids.(!h) <- !next;
          incr next
        end;
        codes.(i) <- ids.(!h)
      done;
      Probe { keys; ids; mask }
    end
  in
  (codes, !next, index)

(* the code of every key of [a] under [index], -1 where absent *)
let lookup_codes index (a : int array) =
  match index with
  | Slots { lo; hi; slot } ->
    Array.map (fun k -> if k >= lo && k <= hi then slot.(k - lo) else -1) a
  | Probe { keys; ids; mask } ->
    Array.map
      (fun k ->
         let h = ref (mix k land mask) in
         while ids.(!h) >= 0 && keys.(!h) <> k do
           h := (!h + 1) land mask
         done;
         ids.(!h))
      a

(* int view of a join/group key column; [None] when the type cannot key
   byte-identically (floats: the row engine's structural equality makes
   every NaN its own key). String keys use their dictionary codes:
   equal codes iff equal strings within one column. *)
let int_keys (col : Column.t) =
  match col.Column.data with
  | Column.Ints a -> Some a
  | Column.Bools a -> Some (Array.map (fun b -> if b then 1 else 0) a)
  | Column.Dict { codes; _ } -> Some codes
  | Column.Floats _ -> None

(* ---- JOIN ---- *)

let try_join left right ~left_key ~right_key =
  if not (Column.enabled ()) then None
  else begin
    let ls = Table.schema left and rs = Table.schema right in
    (* same Not_found as the row path on unknown keys *)
    let li = Schema.index_of ls left_key
    and ri = Schema.index_of rs right_key in
    let lty = Schema.column_type ls left_key
    and rty = Schema.column_type rs right_key in
    if lty <> rty || lty = Value.Tfloat then None
    else begin
      mark "join";
      let lcols = Table.columns left and rcols = Table.columns right in
      let nl = Table.row_count left and nr = Table.row_count right in
      let lkeys = Option.get (int_keys lcols.(li))
      and rkeys = Option.get (int_keys rcols.(ri)) in
      let lcode, groups, index = dense_codes lkeys in
      (* the left code each right row probes with, -1 for no match *)
      let rcode =
        match (lcols.(li).Column.data, rcols.(ri).Column.data) with
        | Column.Dict { dict = ldict; _ }, Column.Dict { dict = rdict; _ } ->
          (* two dictionaries: hash each distinct string once, not per
             row. Entries the left rows never use map to -1 too. *)
          let entry_code =
            lookup_codes index (Array.init (Array.length ldict) Fun.id)
          in
          let by_string = Hashtbl.create (max 16 groups) in
          Array.iteri
            (fun e s ->
               if entry_code.(e) >= 0 then
                 Hashtbl.replace by_string s entry_code.(e))
            ldict;
          let rmap =
            Array.map
              (fun s ->
                 Option.value (Hashtbl.find_opt by_string s) ~default:(-1))
              rdict
          in
          Array.map (fun c -> rmap.(c)) rkeys
        | _ -> lookup_codes index rkeys
      in
      (* CSR build: [rows.(start.(g) .. start.(g+1) - 1)] are the left
         rows with code g, newest first — [Hashtbl.find_all]'s order,
         so output order is the serial kernel's *)
      let start = Array.make (groups + 1) 0 in
      Array.iter (fun g -> start.(g + 1) <- start.(g + 1) + 1) lcode;
      for g = 1 to groups do
        start.(g) <- start.(g) + start.(g - 1)
      done;
      let fill = Array.sub start 0 groups in
      let rows = Array.make nl 0 in
      for i = nl - 1 downto 0 do
        let g = lcode.(i) in
        rows.(fill.(g)) <- i;
        fill.(g) <- fill.(g) + 1
      done;
      (* emitted (left row, right row) pairs, right rows in order; the
         index arrays are sized exactly up front *)
      let total = ref 0 in
      Array.iter
        (fun g -> if g >= 0 then total := !total + start.(g + 1) - start.(g))
        rcode;
      let lidx = Array.make !total 0 and ridx = Array.make !total 0 in
      let k = ref 0 in
      for r = 0 to nr - 1 do
        let g = rcode.(r) in
        if g >= 0 then
          for p = start.(g) to start.(g + 1) - 1 do
            lidx.(!k) <- rows.(p);
            ridx.(!k) <- r;
            incr k
          done
      done;
      let r_keep =
        Array.of_list
          (List.filteri (fun j _ -> j <> ri)
             (List.mapi (fun j _ -> j) (Schema.columns rs)))
      in
      let r_cols_keep = List.filteri (fun j _ -> j <> ri) (Schema.columns rs) in
      let out_schema =
        if r_cols_keep = [] then ls
        else Schema.concat ls (Schema.make r_cols_keep)
      in
      let out_left = Array.map (fun c -> Column.gather c lidx) lcols in
      let out_right =
        Array.map (fun j -> Column.gather rcols.(j) ridx) r_keep
      in
      Some (Table.of_columns out_schema (Array.append out_left out_right))
    end
  end

(* ---- CROSS ---- *)

let try_cross left right =
  if not (Column.enabled ()) then None
  else begin
    (* same schema (and same clash error) as the row path *)
    let out_schema = Schema.concat (Table.schema left) (Table.schema right) in
    mark "cross";
    let nl = Table.row_count left and nr = Table.row_count right in
    (* left-major, right-minor: the serial kernel's nested-loop order *)
    let lidx = Array.make (nl * nr) 0 and ridx = Array.make (nl * nr) 0 in
    for i = 0 to nl - 1 do
      for j = 0 to nr - 1 do
        lidx.((i * nr) + j) <- i;
        ridx.((i * nr) + j) <- j
      done
    done;
    let gather idx c = Column.gather c idx in
    Some
      (Table.of_columns out_schema
         (Array.append
            (Array.map (gather lidx) (Table.columns left))
            (Array.map (gather ridx) (Table.columns right))))
  end

(* ---- GROUP BY ---- *)

(* Per-row group ids for a key tuple, dense in first-appearance order
   of the whole tuple. Each key column is dense-coded and folded into
   the running code as [prev * d + cur]; re-densifying after every key
   keeps the running code below n, so the fold stays below n². *)
let group_ids key_cols =
  match key_cols with
  | [] -> invalid_arg "Columnar.group_ids: no keys"
  | first :: rest ->
    let n = Array.length first in
    let codes, count, _ = dense_codes first in
    List.fold_left
      (fun (prev, _) col ->
         let cur, d, _ = dense_codes col in
         let codes, count, _ =
           dense_codes (Array.init n (fun i -> (prev.(i) * d) + cur.(i)))
         in
         (codes, count))
      (codes, count) rest

let summable (fn : Aggregate.fn) (src : Column.t option) =
  match (fn, src) with
  | (Aggregate.Sum _ | Aggregate.Avg _),
    Some { Column.data = Column.Ints _ | Column.Floats _; _ } -> true
  | (Aggregate.Sum _ | Aggregate.Avg _), _ -> false
  | _ -> true

(* one aggregation's output column over dense group ids [gid], where
   [reps.(g)] is group g's first row and [counts.(g)] its size *)
let aggregate ~gid ~reps ~counts (fn : Aggregate.fn) (src : Column.t option) =
  let groups = Array.length reps and n = Array.length gid in
  let avg sums =
    Column.make
      (Column.Floats
         (Array.init groups (fun g -> sums.(g) /. float_of_int counts.(g))))
  in
  match (fn, src) with
  | Aggregate.Count, _ -> Column.make (Column.Ints counts)
  | Aggregate.Sum _, Some { Column.data = Column.Ints a; _ } ->
    let sums = Array.make groups 0 in
    for r = 0 to n - 1 do
      let g = gid.(r) in
      sums.(g) <- sums.(g) + a.(r)
    done;
    Column.make (Column.Ints sums)
  | Aggregate.Sum _, Some { Column.data = Column.Floats a; _ } ->
    (* SUM seeds from the group's first value, like [Aggregate.step]
       (0. +. -0. would lose the sign) *)
    let sums = Array.make groups 0. in
    for r = 0 to n - 1 do
      let g = gid.(r) in
      sums.(g) <- (if reps.(g) = r then a.(r) else sums.(g) +. a.(r))
    done;
    Column.make (Column.Floats sums)
  (* AVG starts from 0. and adds every value, like [Aggregate.S_avg] *)
  | Aggregate.Avg _, Some { Column.data = Column.Ints a; _ } ->
    let sums = Array.make groups 0. in
    for r = 0 to n - 1 do
      let g = gid.(r) in
      sums.(g) <- sums.(g) +. float_of_int a.(r)
    done;
    avg sums
  | Aggregate.Avg _, Some { Column.data = Column.Floats a; _ } ->
    let sums = Array.make groups 0. in
    for r = 0 to n - 1 do
      let g = gid.(r) in
      sums.(g) <- sums.(g) +. a.(r)
    done;
    avg sums
  | (Aggregate.Min _ | Aggregate.Max _), Some c ->
    let dir = match fn with Aggregate.Min _ -> -1 | _ -> 1 in
    (* row index of each group's winner; strict comparison keeps the
       earliest on ties, exactly as [Aggregate.step] does *)
    let best = Array.copy reps in
    for r = 0 to n - 1 do
      let g = gid.(r) in
      if dir * Column.compare_at c r best.(g) > 0 then best.(g) <- r
    done;
    Column.gather c best
  | Aggregate.First _, Some c -> Column.gather c reps
  | _ -> invalid_arg "Columnar.aggregate: input does not fit the function"

let try_group_by t ~keys ~aggs =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    (* same Not_found as the row path on unknown keys or inputs *)
    let kis = List.map (Schema.index_of schema) keys in
    let inputs =
      List.map
        (fun (a : Aggregate.t) ->
           Option.map (Schema.index_of schema) (Aggregate.input_column a.fn))
        aggs
    in
    let cols = Table.columns t in
    let srcs = List.map (Option.map (Array.get cols)) inputs in
    let key_cols = List.filter_map (fun i -> int_keys cols.(i)) kis in
    (* keyless GROUP BY (one row even when empty), float keys (row-path
       NaN semantics), repeated keys (a duplicate output column) and
       SUM/AVG over non-numeric inputs (a schema error) stay on rows *)
    if
      keys = []
      || List.length key_cols <> List.length kis
      || List.length (List.sort_uniq Int.compare kis) <> List.length kis
      || not (List.for_all2 (fun (a : Aggregate.t) -> summable a.fn) aggs srcs)
    then None
    else begin
      mark "group_by";
      let n = Table.row_count t in
      let gid, groups = group_ids key_cols in
      let reps = Array.make groups 0 and counts = Array.make groups 0 in
      for r = n - 1 downto 0 do
        let g = gid.(r) in
        reps.(g) <- r;
        counts.(g) <- counts.(g) + 1
      done;
      (* same output schema construction as the serial kernel *)
      let scols = Array.of_list (Schema.columns schema) in
      let agg_cols =
        List.map2
          (fun (a : Aggregate.t) i ->
             { Schema.name = a.as_name;
               ty =
                 Aggregate.result_type a.fn
                   ~input:(Option.map (fun i -> scols.(i).Schema.ty) i) })
          aggs inputs
      in
      let out_schema =
        Schema.make (List.map (fun i -> scols.(i)) kis @ agg_cols)
      in
      let out_keys = List.map (fun i -> Column.gather cols.(i) reps) kis in
      let out_aggs =
        List.map2
          (fun (a : Aggregate.t) src -> aggregate ~gid ~reps ~counts a.fn src)
          aggs srcs
      in
      Some (Table.of_columns out_schema (Array.of_list (out_keys @ out_aggs)))
    end
  end

(* ---- fused SELECT/PROJECT/MAP chains ---- *)

(* chain state: columns of some materialized length plus a selection
   over them. [Filter] only refines the selection; [Keep] drops
   columns; [Map_col] densifies (gathers through the selection) so the
   fresh column can sit alongside the others. *)

let densify cols sel =
  match sel with
  | Vector.Dense (0, len)
    when Array.length cols = 0 || len = Column.length cols.(0) -> cols
  | Vector.Dense (start, len) ->
    let idx = Array.init len (fun i -> start + i) in
    Array.map (fun c -> Column.gather c idx) cols
  | Vector.Sparse idx -> Array.map (fun c -> Column.gather c idx) cols

let refine sel mask =
  let picked = mask_to_indices ~start:0 mask in
  match sel with
  | Vector.Dense (start, _) ->
    Vector.Sparse (Array.map (fun i -> start + i) picked)
  | Vector.Sparse idx -> Vector.Sparse (Array.map (fun i -> idx.(i)) picked)

let try_fused t steps =
  if not (Column.enabled ()) then None
  else begin
    let schema0 = Table.schema t in
    (* every expression in the chain must vectorize against the schema
       its step sees; otherwise the whole chain runs on rows *)
    let plan_ok =
      List.fold_left
        (fun acc step ->
           match acc with
           | None -> None
           | Some schema -> (
             match (step : Fused_step.t) with
             | Fused_step.Filter pred ->
               if
                 Vector.vectorizable schema pred
                 && Expr.infer schema pred = Value.Tbool
               then Some schema
               else None
             | Fused_step.Keep names -> Some (Schema.restrict schema names)
             | Fused_step.Map_col { target; expr } ->
               if Vector.vectorizable schema expr then
                 Some
                   (Schema.with_column schema
                      { Schema.name = target; ty = Expr.infer schema expr })
               else None))
        (Some schema0) steps
    in
    match plan_ok with
    | None -> None
    | Some _ ->
      mark "fused";
      let n = Table.row_count t in
      let state =
        List.fold_left
          (fun (schema, cols, sel) step ->
             match (step : Fused_step.t) with
             | Fused_step.Filter pred ->
               let len = Vector.sel_length sel in
               if len = 0 then (schema, cols, sel)
               else begin
                 let mask =
                   Vector.to_mask ~length:len
                     (Vector.eval schema cols ~sel pred)
                 in
                 (schema, cols, refine sel mask)
               end
             | Fused_step.Keep names ->
               let idxs =
                 Array.of_list (List.map (Schema.index_of schema) names)
               in
               ( Schema.restrict schema names,
                 Array.map (fun i -> cols.(i)) idxs,
                 sel )
             | Fused_step.Map_col { target; expr } ->
               let ty = Expr.infer schema expr in
               let out_schema =
                 Schema.with_column schema { Schema.name = target; ty }
               in
               let len = Vector.sel_length sel in
               let dense = densify cols sel in
               let new_col =
                 if len = 0 then empty_column ty
                 else
                   Vector.to_column ~length:len
                     (Vector.eval schema dense
                        ~sel:(Vector.Dense (0, len)) expr)
               in
               let replace = Schema.mem schema target in
               let out_cols =
                 if replace then begin
                   let out = Array.copy dense in
                   out.(Schema.index_of schema target) <- new_col;
                   out
                 end
                 else Array.append dense [| new_col |]
               in
               (out_schema, out_cols, Vector.Dense (0, len)))
          (schema0, Table.columns t, Vector.Dense (0, n))
          steps
      in
      let schema, cols, sel = state in
      Some (Table.of_columns schema (densify cols sel))
  end
