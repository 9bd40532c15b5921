(* Vectorized kernels. Every path here must be byte-identical to the
   row kernel it replaces; anything that cannot be made so returns
   [None] and the caller runs the row path. See columnar.mli for the
   fallback catalogue and docs/columnar.md for the design. *)

let par_threshold = 512

let mark name = Obs.Metrics.incr Obs.Metrics.default ("kernel.columnar." ^ name)

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
   vectors — one loop collecting surviving row indices. Semantics are
   [Int.compare], which primitive int comparison matches. *)
let fast_int_filter (a : int array) op k ~start ~len =
  let keep : int -> bool =
    match (op : Expr.cmpop) with
    | Expr.Eq -> fun x -> x = k
    | Expr.Neq -> fun x -> x <> k
    | Expr.Lt -> fun x -> x < k
    | Expr.Le -> fun x -> x <= k
    | Expr.Gt -> fun x -> x > k
    | Expr.Ge -> fun x -> x >= k
  in
  let out = Array.make len 0 and kept = ref 0 in
  for i = start to start + len - 1 do
    if keep a.(i) then begin
      out.(!kept) <- i;
      incr kept
    end
  done;
  Array.sub out 0 !kept

(* ---- reading through a view ---- *)

(* Evaluates [e] over rows [start, start + len) of a view of [n] rows:
   each column reads through its group's index, whose slice is cut
   once per group and only if some column of the group is read. *)
let eval_range schema (v : Table.view) ~n ~start ~len e =
  let slices =
    Array.map
      (fun ix ->
         lazy
           (Vector.Sparse
              (if start = 0 && len = n then ix else Array.sub ix start len)))
      v.idx
  in
  Vector.eval schema (Array.map fst v.vcols) ~len
    ~sel:(fun i ->
        match v.vcols.(i) with
        | _, -1 -> Vector.Dense (start, len)
        | _, g -> Lazy.force slices.(g))
    e

(* [f ~start ~len] over [0, n), chunked on the pool when that pays *)
let chunked n f =
  let jobs = Pool.effective_jobs () in
  if jobs > 1 && n >= par_threshold then
    Array.to_list
      (Pool.run
         (Array.map
            (fun (start, len) () -> f ~start ~len)
            (Pool.chunks ~jobs n)))
  else [ f ~start:0 ~len:n ]

(* [col ⊕ const] over a row-aligned int column filters it in place; the
   predicate has type-checked, so its column exists *)
let select_range schema (v : Table.view) ~n pred ~start ~len =
  let in_place =
    match (pred : Expr.t) with
    | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) -> (
      match v.vcols.(Schema.index_of schema c) with
      | { Column.data = Column.Ints a; _ }, -1 ->
        Some (fast_int_filter a op k ~start ~len)
      | _ -> None)
    | _ -> None
  in
  match in_place with
  | Some idx -> idx
  | None ->
    mask_to_indices ~start
      (Vector.to_mask ~length:len (eval_range schema v ~n ~start ~len pred))

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
        let v = Table.parts t in
        let keep =
          Array.concat (chunked n (select_range schema v ~n pred))
        in
        let kept = Array.length keep in
        (* nothing filtered: the view is shared as it is *)
        Some
          (Table.of_view schema ~rows:kept
             (if kept = n then v else Table.reindex v keep))
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
    let v = Table.parts t in
    (* the kept columns keep their bases and indices: zero copy *)
    Some
      (Table.of_view out_schema ~rows:(Table.row_count t)
         { v with vcols = Array.of_list (List.map (Array.get v.vcols) idxs) })
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
      let n = Table.row_count t in
      (* a fused chain gathered every column at a MAP: settle the view
         there too (kernel outputs come settled, so solo MAPs skip it) *)
      let v = Table.parts (Table.settle t) in
      let new_col =
        if n = 0 then empty_column ty
        else
          Column.concat
            (chunked n (fun ~start ~len ->
                 Vector.to_column ~length:len
                   (eval_range schema v ~n ~start ~len expr)))
      in
      let vcols =
        if Schema.mem schema target then begin
          let out = Array.copy v.vcols in
          out.(Schema.index_of schema target) <- (new_col, -1);
          out
        end
        else Array.append v.vcols [| (new_col, -1) |]
      in
      Some (Table.of_view out_schema ~rows:n { v with vcols })
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

(* [?range]: every key is known to lie in [0, range), which saves the
   bounds scan. [?into] receives the codes (default: a fresh array); it
   may be [a] itself, since row i's key is read before its code is
   written. *)
let dense_codes ?range ?into (a : int array) =
  let n = Array.length a in
  let codes = match into with Some c -> c | None -> Array.make n 0 in
  let next = ref 0 in
  let lo, hi =
    match range with
    | Some r -> (0, r - 1)
    | None ->
      let lo = ref max_int and hi = ref min_int in
      for i = 0 to n - 1 do
        let k = a.(i) in
        if k < !lo then lo := k;
        if k > !hi then hi := k
      done;
      (!lo, !hi)
  in
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
      (* only the key columns are read, each coded off its base column
         and read through its view index: the buckets need any
         injective code *)
      let lv = Table.parts left and rv = Table.parts right in
      let through (v : Table.view) g codes =
        if g < 0 then codes else Table.compose codes v.idx.(g)
      in
      let lkey, lvia = lv.vcols.(li) and rkey, rvia = rv.vcols.(ri) in
      let nl = Table.row_count left and nr = Table.row_count right in
      let rkeys = Option.get (int_keys rkey) in
      let bcode, groups, index = dense_codes (Option.get (int_keys lkey)) in
      let lcode = through lv lvia bcode in
      (* the left code each right row probes with, -1 for no match *)
      let rcode =
        through rv rvia @@
        match (lkey.Column.data, rkey.Column.data) with
        | Column.Dict { dict = ldict; _ }, Column.Dict { dict = rdict; _ } ->
          (* two dictionaries: hash each distinct string once, not per
             row. An entry no left row holds maps to -1 or to an empty
             bucket. *)
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
      let r_cols_keep = List.filteri (fun j _ -> j <> ri) (Schema.columns rs) in
      let out_schema =
        if r_cols_keep = [] then ls
        else Schema.concat ls (Schema.make r_cols_keep)
      in
      (* a view: each input's groups composed with its pair index *)
      let rv =
        { rv with
          vcols =
            Array.of_list
              (List.filteri (fun j _ -> j <> ri) (Array.to_list rv.vcols)) }
      in
      Some
        (Table.of_view out_schema ~rows:!total
           (Table.concat_views
              (Table.reindex lv lidx)
              (Table.reindex rv ridx)))
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
    Some
      (Table.of_view out_schema ~rows:(nl * nr)
         (Table.concat_views
            (Table.reindex (Table.parts left) lidx)
            (Table.reindex (Table.parts right) ridx)))
  end

(* ---- GROUP BY ---- *)

(* Per-row group ids for a key tuple, dense in first-appearance order
   of the whole tuple. A key is its base column's int keys and, when it
   is read through a view, the row index. Before the last step any
   injective code will do: a key whose values span a narrow range is
   coded as its offset from the minimum, with no array; a wider one is
   dense-coded off its base column. Each key is folded into the running
   code as [prev * d + cur], read through the index; the running code is
   re-densified only when the next fold would leave the range the
   slot-array path of {!dense_codes} takes, so it stays below n times
   the base's row count. *)
let group_ids n keys =
  let limit = max 4096 (2 * n) in
  match keys with
  | [] -> invalid_arg "Columnar.group_ids: no keys"
  | [ (base, None) ] ->
    let codes, count, _ = dense_codes base in
    (codes, count)
  | keys ->
    (* the running code, rewritten in place by every fold *)
    let acc = Array.make n 0 in
    let densify range =
      let _, count, _ = dense_codes ~range ~into:acc acc in
      count
    in
    let range =
      List.fold_left
        (fun range ((base : int array), via) ->
           let lo = ref max_int and hi = ref min_int in
           Array.iter
             (fun k ->
                if k < !lo then lo := k;
                if k > !hi then hi := k)
             base;
           let lo = !lo and hi = !hi in
           (* [hi - lo] wraps negative when the span exceeds max_int *)
           let codes, lo, d =
             if hi - lo >= 0 && hi - lo < limit then (base, lo, hi - lo + 1)
             else
               let codes, d, _ = dense_codes base in
               (codes, 0, d)
           in
           let range = if range * d > limit then densify range else range in
           (match via with
            | None ->
              for i = 0 to n - 1 do
                acc.(i) <- (acc.(i) * d) + codes.(i) - lo
              done
            | Some ix ->
              for i = 0 to n - 1 do
                acc.(i) <- (acc.(i) * d) + codes.(ix.(i)) - lo
              done);
           range * d)
        1 keys
    in
    let count = densify range in
    (acc, count)

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
    (match c.Column.data with
     | Column.Ints a when Column.all_valid c ->
       for r = 0 to n - 1 do
         let g = gid.(r) in
         if dir * Int.compare a.(r) a.(best.(g)) > 0 then best.(g) <- r
       done
     | Column.Floats a when Column.all_valid c ->
       for r = 0 to n - 1 do
         let g = gid.(r) in
         if dir * Float.compare a.(r) a.(best.(g)) > 0 then best.(g) <- r
       done
     | _ ->
       for r = 0 to n - 1 do
         let g = gid.(r) in
         if dir * Column.compare_at c r best.(g) > 0 then best.(g) <- r
       done);
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
    (* keys are coded off their base columns, read through the view's
       indexes; only aggregation inputs are gathered *)
    let t = Table.settle t in
    let v = Table.parts t in
    let via i =
      match v.vcols.(i) with
      | c, -1 -> (c, None)
      | c, g -> (c, Some v.idx.(g))
    in
    let srcs = List.map (Option.map (Table.column_at t)) inputs in
    let key_cols =
      List.filter_map
        (fun i ->
           let c, ix = via i in
           Option.map (fun keys -> (keys, ix)) (int_keys c))
        kis
    in
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
      let gid, groups = group_ids n key_cols in
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
      let out_keys =
        List.map
          (fun i ->
             match via i with
             | c, None -> Column.gather c reps
             | c, Some ix -> Column.gather c (Table.compose ix reps))
          kis
      in
      let out_aggs =
        List.map2
          (fun (a : Aggregate.t) src -> aggregate ~gid ~reps ~counts a.fn src)
          aggs srcs
      in
      Some (Table.of_columns out_schema (Array.of_list (out_keys @ out_aggs)))
    end
  end
