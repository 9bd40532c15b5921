(* Vectorized kernels. Every path here must be byte-identical to the
   row kernel it replaces; anything that cannot be made so returns
   [None] and the caller runs the row path. See columnar.mli for the
   fallback catalogue and docs/columnar.md for the design. *)

let mark name = Obs.Metrics.incr Obs.Metrics.default ("kernel.columnar." ^ name)

(* a refusal: the caller runs the row path, which counts
   [kernel.row.<kernel>] beside this *)
let fallback reason =
  Obs.Metrics.incr Obs.Metrics.default ("kernel.fallback." ^ reason);
  None

(* a refusal of a fused kernel: the caller runs its operators one by
   one, each counting its own path, so these stay out of
   [kernel.fallback.*] *)
let refused kernel reason =
  Obs.Metrics.incr Obs.Metrics.default
    ("kernel." ^ kernel ^ ".refused." ^ reason);
  None

(* ---- SELECT ---- *)

let mask_to_indices mask =
  let n = Array.length mask in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then begin
      out.(!k) <- i;
      incr k
    end
  done;
  out

(* single-pass filter for the overwhelmingly common predicate shape
   [col ⊕ const] over an int column: no boolean mask, no intermediate
   vectors — one loop collecting surviving row indices. Semantics are
   [Int.compare], which primitive int comparison matches. *)
let fast_int_filter (a : int array) op k =
  let keep : int -> bool =
    match (op : Expr.cmpop) with
    | Expr.Eq -> fun x -> x = k
    | Expr.Neq -> fun x -> x <> k
    | Expr.Lt -> fun x -> x < k
    | Expr.Le -> fun x -> x <= k
    | Expr.Gt -> fun x -> x > k
    | Expr.Ge -> fun x -> x >= k
  in
  let n = Array.length a in
  let out = Array.make n 0 and kept = ref 0 in
  for i = 0 to n - 1 do
    if keep a.(i) then begin
      out.(!kept) <- i;
      incr kept
    end
  done;
  Array.sub out 0 !kept

(* ---- reading through a view ---- *)

(* Runs [prog] over the [n] rows of a view: each column reads through
   its group's index. *)
let eval_view ~run prog (v : Table.view) ~n =
  run prog (Array.map fst v.vcols) ~len:n
    ~sel:(fun i ->
        match v.vcols.(i) with
        | _, -1 -> Vector.Dense
        | _, g -> Vector.Sparse v.idx.(g))

(* the rows of [v] that [pred] keeps. [col ⊕ const] over a row-aligned
   int column filters it in place; the predicate has type-checked, so
   its column exists *)
let select_indices schema (v : Table.view) ~n prog pred =
  let in_place =
    match (pred : Expr.t) with
    | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) -> (
      match v.vcols.(Schema.index_of schema c) with
      | { Column.data = Column.Ints a; _ }, -1 -> Some (fast_int_filter a op k)
      | _ -> None)
    | _ -> None
  in
  match in_place with
  | Some idx -> idx
  | None ->
    mask_to_indices
      (Vector.to_mask ~length:n (eval_view ~run:Vector.run prog v ~n))

let try_select t pred =
  if not (Column.enabled ()) then fallback "disabled"
  else begin
    let schema = Table.schema t in
    match Vector.compile schema pred with
    | None -> fallback "not_vectorizable"
    | Some prog when Vector.ty prog <> Value.Tbool ->
      (* row path raises per live row; let it *)
      fallback "non_bool_predicate"
    | Some prog ->
      mark "select";
      let n = Table.row_count t in
      if n = 0 then Some t
      else begin
        let v = Table.parts t in
        let keep = select_indices schema v ~n prog pred in
        let kept = Array.length keep in
        (* nothing filtered: the view is shared as it is *)
        Some
          (Table.of_view schema ~rows:kept
             (if kept = n then v else Table.reindex v keep))
      end
  end

(* ---- PROJECT ---- *)

let try_project t names =
  if not (Column.enabled ()) then fallback "disabled"
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

(* [a] with [x] at [target]'s column of [schema], or appended when
   [schema] has no such column: where a MAP puts its target *)
let put schema target a x =
  if Schema.mem schema target then begin
    let a = Array.copy a in
    a.(Schema.index_of schema target) <- x;
    a
  end
  else Array.append a [| x |]

let empty_column ty = Column.Builder.to_column (Column.Builder.create ty)

let try_map_column t ~target ~expr =
  if not (Column.enabled ()) then fallback "disabled"
  else begin
    let schema = Table.schema t in
    match Vector.compile schema expr with
    | None -> fallback "not_vectorizable"
    | Some prog ->
      mark "map";
      let ty = Vector.ty prog in
      let out_schema = Schema.with_column schema { Schema.name = target; ty } in
      let n = Table.row_count t in
      let v = Table.parts t in
      let entry =
        match expr with
        | Expr.Col c ->
          (* a bare column keeps its base and group, as PROJECT does:
             zero copy *)
          v.vcols.(Schema.index_of schema c)
        | _ when n = 0 -> (empty_column ty, -1)
        | _ ->
          ( Vector.to_column ~length:n
              (eval_view ~run:Vector.run_kept prog v ~n),
            -1 )
      in
      Some
        (Table.of_view out_schema ~rows:n
           { v with vcols = put schema target v.vcols entry })
  end

(* ---- key coding ----

   A coder gives int keys dense ids in order of first appearance: the
   i-th distinct key it meets gets id i. Keys in a range of at most
   [limit] slots index a slot array directly; wider ones go through an
   open-addressing table that doubles as it fills. *)

type coder = {
  lo : int;  (** slots: the key of slot 0 *)
  hashed : bool;
  mutable table : int array;
      (** the id of each slot's key, or -1; hashed: the id at each probe
          slot *)
  mutable held : int array;  (** hashed: the key at each probe slot *)
  mutable count : int;  (** the ids given so far *)
}

(* spread high key bits into the low ones the probe mask keeps *)
let mix k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let rec pow2_above n p = if p >= n then p else pow2_above n (2 * p)

(* a coder of keys in [lo, lo + range), with room for [expect] ids
   before it first doubles when hashed *)
let coder ?(lo = 0) ~range ~limit ~expect () =
  if range <= limit then
    { lo; hashed = false; table = Array.make range (-1); held = [||];
      count = 0 }
  else
    let slots = pow2_above (2 * expect) 16 in
    { lo; hashed = true; table = Array.make slots (-1);
      held = Array.make slots 0; count = 0 }

let rehash d =
  let slots = 2 * Array.length d.table in
  let mask = slots - 1 in
  let table = Array.make slots (-1) and held = Array.make slots 0 in
  Array.iteri
    (fun h id ->
       if id >= 0 then begin
         let c = d.held.(h) in
         let j = ref (mix c land mask) in
         while table.(!j) >= 0 do
           j := (!j + 1) land mask
         done;
         table.(!j) <- id;
         held.(!j) <- c
       end)
    d.table;
  d.table <- table;
  d.held <- held

(* Writes the id of each key k < n of [keys] into [into.(k)] (default:
   over the key), giving new keys the next ids. With [~sizes], adds 1
   to [sizes.(id)], which must hold [count + n] ids; with [~born], lists
   in order the rows that take a new id. Returns how many did: the i-th
   took id [count + i] of [d] before the call. *)
let densify ?sizes ?born ?into d (keys : int array) n =
  let into = Option.value into ~default:keys in
  let sizes, sized =
    match sizes with Some s -> (s, true) | None -> ([||], false)
  in
  let born, listed =
    match born with Some b -> (b, true) | None -> ([||], false)
  in
  let nb = ref 0 and count = ref d.count in
  if not d.hashed then begin
    let slot = d.table and lo = d.lo in
    for k = 0 to n - 1 do
      let c = keys.(k) - lo in
      let g = slot.(c) in
      let g =
        if g >= 0 then g
        else begin
          let g = !count in
          slot.(c) <- g;
          count := g + 1;
          if listed then born.(!nb) <- k;
          incr nb;
          g
        end
      in
      into.(k) <- g;
      if sized then sizes.(g) <- sizes.(g) + 1
    done
  end
  else begin
    let table = ref d.table and held = ref d.held in
    let mask = ref (Array.length !table - 1) in
    for k = 0 to n - 1 do
      let c = keys.(k) in
      let t = !table and ks = !held and m = !mask in
      let h = ref (mix c land m) in
      while t.(!h) >= 0 && ks.(!h) <> c do
        h := (!h + 1) land m
      done;
      let g = t.(!h) in
      let g =
        if g >= 0 then g
        else begin
          let g = !count in
          t.(!h) <- g;
          ks.(!h) <- c;
          count := g + 1;
          if listed then born.(!nb) <- k;
          incr nb;
          if 2 * (g + 1) > m then begin
            d.count <- g + 1;
            rehash d;
            table := d.table;
            held := d.held;
            mask := Array.length d.table - 1
          end;
          g
        end
      in
      into.(k) <- g;
      if sized then sizes.(g) <- sizes.(g) + 1
    done
  end;
  d.count <- !count;
  !nb

(* the id of key [k], or -1 when [d] never met it; [k - lo] is tested
   for wrapping, since [k] may lie anywhere *)
let[@inline] lookup d k =
  if not d.hashed then begin
    let s = k - d.lo in
    if k >= d.lo && s >= 0 && s < Array.length d.table then d.table.(s) else -1
  end
  else begin
    let t = d.table and ks = d.held in
    let m = Array.length t - 1 in
    let h = ref (mix k land m) in
    while t.(!h) >= 0 && ks.(!h) <> k do
      h := (!h + 1) land m
    done;
    t.(!h)
  end

(* The least key of [a] and how many ints lie from it to the greatest,
   [max_int] when that count does not fit. *)
let key_range (a : int array) =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Array.length a - 1 do
    let k = a.(i) in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  (* [hi - lo] wraps negative when the true span exceeds max_int *)
  let span = !hi - !lo in
  (!lo, if span >= 0 && span < max_int then span + 1 else max_int)

(* [a]'s keys renumbered by first appearance, and the coder that holds
   them all: it also answers lookups of another column's keys (a join's
   probe side) *)
let dense_codes (a : int array) =
  let n = Array.length a in
  let lo, range = key_range a in
  let d = coder ~lo ~range ~limit:(max 4096 (2 * n)) ~expect:n () in
  (* the ids go to a fresh array: [a] may be a base column *)
  let codes = Array.make n 0 in
  ignore (densify ~into:codes d a n);
  (codes, d)

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

(* ---- placement ----

   A stable counting sort: the items [0, n), item i's key [key.(i)]
   below [keys], listed in key order, each key's items in the order
   given, or newest first. [start.(c)] is where key c's items begin, and
   [start.(keys)] is n. *)
let place ?(newest_first = false) ~keys (key : int array) =
  let n = Array.length key in
  let start = Array.make (keys + 1) 0 in
  for i = 0 to n - 1 do
    let c = key.(i) in
    start.(c + 1) <- start.(c + 1) + 1
  done;
  for c = 1 to keys do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let next = Array.sub start 0 keys and order = Array.make n 0 in
  (* the two orders as two loops: a test per item costs small inputs
     a few percent *)
  if newest_first then
    for i = n - 1 downto 0 do
      let c = key.(i) in
      order.(next.(c)) <- i;
      next.(c) <- next.(c) + 1
    done
  else
    for i = 0 to n - 1 do
      let c = key.(i) in
      order.(next.(c)) <- i;
      next.(c) <- next.(c) + 1
    done;
  (start, order)

(* ---- JOIN ---- *)

(* The output schema and matches ({!Table.matches}) of [left ⋈ right],
   built on the left side or the right one, or the reason the columnar
   path refuses. [refuse] vetoes on the output schema, before any key is
   coded. Row q of the probe side probes the bucket of [pcode.(via q)],
   where [via] is its key's view index or the identity, so a probe side
   read through a view is coded once per base row. *)
let join_matches ?(refuse = fun _ -> None) ~build_left left right ~left_key
    ~right_key =
  if not (Column.enabled ()) then Error "disabled"
  else begin
    let ls = Table.schema left and rs = Table.schema right in
    (* same Not_found as the row path on unknown keys *)
    let li = Schema.index_of ls left_key
    and ri = Schema.index_of rs right_key in
    let lty = Schema.column_type ls left_key
    and rty = Schema.column_type rs right_key in
    let r_cols_keep = List.filteri (fun j _ -> j <> ri) (Schema.columns rs) in
    let out_schema =
      if r_cols_keep = [] then ls
      else Schema.concat ls (Schema.make r_cols_keep)
    in
    if lty <> rty then Error "key_type_mismatch"
    else if lty = Value.Tfloat then Error "float_key"
    else
      match refuse out_schema with
      | Some reason -> Error reason
      | None ->
        (* only the key columns are read, each coded off its base column
           and read through its view index: the buckets need any
           injective code *)
        let lv = Table.parts left and rv = Table.parts right in
        (* a key's base column, view index and row count *)
        let side (v : Table.view) i n =
          match v.vcols.(i) with
          | c, -1 -> (c, None, n)
          | c, g -> (c, Some v.idx.(g), n)
        in
        let (bkey, bvia, _), (pkey, pvia, nprobe) =
          let l = side lv li (Table.row_count left)
          and r = side rv ri (Table.row_count right) in
          if build_left then (l, r) else (r, l)
        in
        let bbase, coder = dense_codes (Option.get (int_keys bkey)) in
        let bcode =
          match bvia with None -> bbase | Some ix -> Table.compose bbase ix
        in
        (* the build code each probe base row looks up, -1 for none *)
        let pcode =
          let pkeys = Option.get (int_keys pkey) in
          match (bkey.Column.data, pkey.Column.data) with
          | Column.Dict { dict = bdict; _ }, Column.Dict { dict = pdict; _ } ->
            (* two dictionaries: hash each distinct string once, not per
               row. An entry no build row holds maps to -1 or to an
               empty bucket. *)
            let by_string = Hashtbl.create (max 16 coder.count) in
            Array.iteri
              (fun e s ->
                 let c = lookup coder e in
                 if c >= 0 then Hashtbl.replace by_string s c)
              bdict;
            let pmap =
              Array.map
                (fun s ->
                   Option.value (Hashtbl.find_opt by_string s) ~default:(-1))
                pdict
            in
            Array.map (fun c -> pmap.(c)) pkeys
          | _ ->
            let codes = Array.make (Array.length pkeys) 0 in
            for i = 0 to Array.length pkeys - 1 do
              codes.(i) <- lookup coder pkeys.(i)
            done;
            codes
        in
        (* the buckets, each one's rows newest first *)
        let bstart, brows =
          place ~newest_first:true ~keys:coder.count bcode
        in
        let pairs = ref 0 in
        (match pvia with
         | None ->
           for q = 0 to nprobe - 1 do
             let c = pcode.(q) in
             if c >= 0 then pairs := !pairs + bstart.(c + 1) - bstart.(c)
           done
         | Some ix ->
           for q = 0 to nprobe - 1 do
             let c = pcode.(ix.(q)) in
             if c >= 0 then pairs := !pairs + bstart.(c + 1) - bstart.(c)
           done);
        let rv =
          { rv with
            vcols =
              Array.of_list
                (List.filteri (fun j _ -> j <> ri) (Array.to_list rv.vcols)) }
        in
        Ok
          ( out_schema,
            { Table.lv; rv; build_left; nprobe; pcode; pvia; bstart; brows;
              pairs = !pairs } )
  end

(* A plain JOIN is built on the left, as the serial kernel is, and
   returns its matches: its pairs are the serial kernel's rows, in
   order, and no pair is built until a consumer reads them. *)
let try_join left right ~left_key ~right_key =
  match join_matches ~build_left:true left right ~left_key ~right_key with
  | Error reason -> fallback reason
  | Ok (out_schema, m) ->
    mark "join";
    Some (Table.of_matches out_schema m)

(* ---- sources ----

   A source reads a table, or a set of pairs, in blocks of
   {!Table.block} rows (a CROSS's: whole left rows), in order: [run f]
   calls [f b] on each block [b]. Block row k, for k < [len], is row
   [start + k] of the source. Column j of the block is at [pos j = (ix,
   off)] in its base [bases.(j)]: slot [ix.(off + k)], or [off + k]
   when [ix == direct]; [sel j] gives the same rows as a selection for
   {!Vector.run}. In a block of pairs ([paired]), row k is left row
   [lrows.(k)] and right row [rrows.(k)], and the columns are the left
   side's then the right side's. *)

(* An index a block reads is never empty, since blocks hold at least
   one row, so the empty array marks a column read in place. *)
let direct : int array = [||]

type block = {
  mutable start : int;
  mutable len : int;
  mutable lrows : int array;
  mutable rrows : int array;
  pos : int -> int array * int;
  sel : int -> Vector.sel;
}

type source = {
  bases : Column.t array;
  run : (block -> unit) -> unit;
  paired : bool;
  slots : int -> int array -> int array -> int array;
      (** [slots j l r]: column j's base slots of the rows whose left
          rows are [l] and right rows [r] (a table's rows: [l]) *)
}

(* the base slots of column [j] of [v] at its rows [rows] *)
let view_slots (v : Table.view) j rows =
  match v.vcols.(j) with _, -1 -> rows | _, g -> Table.compose v.idx.(g) rows

(* the pairs of [lv]'s and [rv]'s rows that [pairs] lists, each column
   read through its group's index composed with the block's rows *)
let pair_source (lv : Table.view) (rv : Table.view) pairs =
  { bases = Array.append (Array.map fst lv.vcols) (Array.map fst rv.vcols);
    run =
      (fun f ->
         let lset, lsel = Table.block_sel lv
         and rset, rsel = Table.block_sel rv in
         let nleft = Array.length lv.vcols in
         let rows j =
           if j < nleft then lsel (snd lv.vcols.(j))
           else rsel (snd rv.vcols.(j - nleft))
         in
         let b =
           { start = 0; len = 0; lrows = direct; rrows = direct;
             pos = (fun j -> (rows j, 0));
             sel = (fun j -> Vector.Sparse (rows j)) }
         in
         Table.iter_pairs pairs (fun lb rb n ->
             lset lb n;
             rset rb n;
             b.len <- n;
             b.lrows <- lb;
             b.rrows <- rb;
             f b;
             b.start <- b.start + n));
    paired = true;
    slots =
      (fun j l r ->
         let nleft = Array.length lv.vcols in
         if j < nleft then view_slots lv j l else view_slots rv (j - nleft) r) }

(* Any table: a JOIN's matches are read pair by pair, with no pair
   index; a plain column or a view's group in place, at the block's
   offset, and through the block's rows, made only when a program reads
   them. *)
let table_source t =
  match Table.matches t with
  | Some m -> pair_source m.lv m.rv (Table.Matches m)
  | None ->
    let v = Table.parts t and n = Table.row_count t in
    { bases = Array.map fst v.vcols;
      run =
        (fun f ->
           let set, gsel = Table.block_sel v in
           let rows = Array.make (max 1 (min n Table.block)) 0 in
           let filled = ref false in
           let rec b =
             { start = 0; len = 0; lrows = direct; rrows = direct;
               pos =
                 (fun j ->
                    match v.vcols.(j) with
                    | _, -1 -> (direct, b.start)
                    | _, g -> (v.idx.(g), b.start));
               sel =
                 (fun j ->
                    if not !filled then begin
                      for k = 0 to b.len - 1 do
                        rows.(k) <- b.start + k
                      done;
                      set rows b.len;
                      filled := true
                    end;
                    Vector.Sparse (gsel (snd v.vcols.(j)))) }
           in
           while b.start < n do
             b.len <- min Table.block (n - b.start);
             filled := false;
             f b;
             b.start <- b.start + b.len
           done);
      paired = false;
      slots = (fun j l _ -> view_slots v j l) }

(* [prog] run once per block of [src], its values handed to [sink] with
   the block: valid until the next block *)
let each src prog sink =
  src.run (fun b -> sink b (Vector.run prog src.bases ~len:b.len ~sel:b.sel))

(* A program's values over [n] rows as an array, a constant spread *)
let ints_of n = function
  | Vector.VInt a -> a
  | Vector.VConst (Value.Int x) -> Array.make n x
  | _ -> assert false

let floats_of n = function
  | Vector.VFloat a -> a
  | Vector.VConst (Value.Float x) -> Array.make n x
  | _ -> assert false

(* ---- JOIN → SELECT ---- *)

type join_select = {
  table : Table.t;
  pairs : int;
  join_bytes : int array;
}

(* The smaller side is the build side, so no array is sized by the
   larger input (k-means' 120,000-row [d] probes 1,200 buckets). The
   predicate is compiled once, by the refusal check, and run on each
   block of candidate pairs; the sink keeps the survivors, which are
   then placed by right row, stably: the serial kernel's order. *)
let try_join_select left right ~left_key ~right_key ~pred =
  let prog = ref None in
  let refuse schema =
    match Vector.compile schema pred with
    | None -> Some "not_vectorizable"
    | Some p when Vector.ty p <> Value.Tbool -> Some "non_bool_predicate"
    | Some p ->
      prog := Some p;
      None
  in
  let build_left = Table.row_count left <= Table.row_count right in
  match join_matches ~refuse ~build_left left right ~left_key ~right_key with
  | Error reason -> refused "join_select" reason
  | Ok (out_schema, m) ->
    mark "join_select";
    let kept = ref [] in
    each (pair_source m.lv m.rv (Table.Matches m)) (Option.get !prog)
      (fun b v ->
         let hits = mask_to_indices (Vector.to_mask ~length:b.len v) in
         kept :=
           (Table.compose b.lrows hits, Table.compose b.rrows hits) :: !kept);
    let lidx = Array.concat (List.rev_map fst !kept)
    and ridx = Array.concat (List.rev_map snd !kept) in
    let _, order = place ~keys:(Table.row_count right) ridx in
    Some
      { table =
          Table.of_view out_schema ~rows:(Array.length order)
            (Table.pair_view m.lv m.rv
               (Table.compose lidx order, Table.compose ridx order));
        pairs = m.pairs;
        join_bytes = Table.matches_bytes m }

(* ---- CROSS ---- *)

let try_cross left right =
  if not (Column.enabled ()) then fallback "disabled"
  else begin
    (* same schema (and same clash error) as the row path *)
    let out_schema = Schema.concat (Table.schema left) (Table.schema right) in
    mark "cross";
    let nl = Table.row_count left and nr = Table.row_count right in
    Some
      (Table.of_view out_schema ~rows:(nl * nr)
         (Table.pair_view (Table.parts left) (Table.parts right)
            (Table.pair_rows (Table.Cross { lo = 0; hi = nl; nr }))))
  end

(* ---- GROUP BY ---- *)

let[@inline] slot_at flat ix off k = if flat then off + k else ix.(off + k)

let[@inline] int_at (a : int array) flat ix off k =
  if flat then a.(off + k) else a.(ix.(off + k))

let[@inline] float_at (a : float array) flat ix off k =
  if flat then a.(off + k) else a.(ix.(off + k))

(* [Aggregate.add_float], here so that the loops below add unboxed
   floats: without cross-module inlining a call boxes both operands and
   the result *)
let[@inline] add_float acc x = if Float.is_nan acc then acc else acc +. x

(* A key's codes off its base column, [(codes, lo, d)]: row r's code is
   [codes.(r) - lo], below [d]. A key whose values span a narrow range
   is its own code, offset by its minimum; a wider one is dense-coded. *)
let key_codes limit (keys : int array) =
  let lo, range = key_range keys in
  if Array.length keys = 0 then (keys, 0, 1)
  else if range <= limit then (keys, lo, range)
  else
    let codes, d = dense_codes keys in
    (codes, 0, d.count)

(* [comb.(k) <- comb.(k) * mult + codes.(at k) - lo] for each row k < n
   of a block, where [at] reads [ix] at [off] by {!slot_at}: one key
   folded into the running codes ([mult = 0] for the first). *)
let fold_key (comb : int array) ~mult ~(codes : int array) ~lo ~ix ~off n =
  let flat = ix == direct in
  for k = 0 to n - 1 do
    comb.(k) <- (comb.(k) * mult) + int_at codes flat ix off k - lo
  done

(* One key of the fold: its column, its codes, and the coder the
   running code is re-densified through first, when folding it in could
   overflow. *)
type key_step = {
  col : int;
  codes : int array;
  lo : int;
  d : int;
  pre : coder option;
}

(* an aggregation's input: a column of the table, or the absorbed
   MAP's values *)
type input =
  | Col of int
  | Mapped

(* One aggregation's per-group state, grown with the group count:
   [step b gid mapped] folds in block [b], whose row k has group
   [gid.(k)], with the MAP's values in [mapped]; [result groups] is its
   output column. *)
type acc = {
  grow : int -> unit;
  step : block -> int array -> Vector.vec -> unit;
  result : int -> Column.t;
}

(* the first [n] entries of a per-group array: the array itself when
   it holds exactly the groups *)
let trim a n = if Array.length a = n then a else Array.sub a 0 n

let grown a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let summable (fn : Aggregate.fn) ty =
  match fn with
  | Aggregate.Sum _ | Aggregate.Avg _ -> ty = Value.Tint || ty = Value.Tfloat
  | _ -> true

(* whether row k of a block, of group g, starts its group: [born]
   lists the block's rows that start one, the i-th group [g0 + i] *)
let[@inline] born_at (born : int array) g0 g k = g >= g0 && born.(g - g0) = k

(* [Float.compare], with the ordered cases inline *)
let[@inline] compare_floats (x : float) y =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else Float.compare x y

(* The columnar GROUP BY, one blocked pass over [src], a source of [t]:
   each block's key codes are folded into one code per row, mapped to
   group ids in first appearance, and every aggregation updated in the
   same pass; no array of the row count is built. With [map = Some
   (target, prog)], the GROUP BY reads the MAP [target := prog] of [t]
   instead of [t], the program run once per block. [kis] are the key
   columns and [srcs] the aggregation inputs, both in the GROUP BY's
   input schema; no key is the MAP's target. *)
let group_run ?ids t src ~map ~out_schema ~kis ~aggs ~srcs ~src_ty
    ~bases_keys =
  let n = Table.row_count t in
  let limit = max 4096 (2 * n) in
  (* the fold: the running code is re-densified only before a key that
     would take it past [max_int]; it then stays below [n] *)
  let range = ref 1 in
  let steps =
    Array.of_list
      (List.map2
         (fun col (codes, lo, d) ->
            let pre =
              if !range > 1 && !range > max_int / d then begin
                let p = coder ~range:!range ~limit ~expect:(min !range n) () in
                range := min !range n;
                Some p
              end
              else None
            in
            range := !range * d;
            { col; codes; lo; d; pre })
         kis bases_keys)
  in
  (* the group state is sized as the ids are: for every code of a slot
     array, or, hashed, for every row of a table that holds its rows. A
     JOIN's matches hold far fewer words than their pairs, so a hashed
     table over them starts small and doubles *)
  let expect =
    if !range <= limit || Table.matches t = None then min n !range
    else min 4096 n
  in
  let final = coder ~range:!range ~limit ~expect () in
  let ids_bound = if final.hashed then max_int else !range in
  let cap = ref (max 1 expect) in
  let cap0 = !cap in
  (* per group: its size, and its first row: a table's row, or a pair's
     left and right rows *)
  let counts = ref (Array.make cap0 0) in
  let lfirst = ref (Array.make cap0 0)
  and rfirst = ref (Array.make (if src.paired then cap0 else 0) 0) in
  (* block scratch: the running code, then the group id, of each row;
     the rows that start a group, and the first new group's id: group g
     starts at row k of the block iff [born_at born !g0 g k] *)
  let block = max 1 (min n Table.block) in
  let comb = Array.make block 0 in
  let born = Array.make block 0 and g0 = ref 0 in
  (* an input's values in block [b]: an array and where [b] reads it *)
  let base =
    Array.map
      (fun (c : Column.t) ->
         match c.data with
         | Column.Ints a -> Vector.VInt a
         | Column.Floats a -> Vector.VFloat a
         | _ -> Vector.VConst (Value.Int 0))
      src.bases
  in
  let values (b : block) mapped = function
    | Col j ->
      let ix, off = b.pos j in
      (base.(j), ix, off)
    | Mapped -> (mapped, direct, 0)
  in
  let ints b mapped input =
    let v, ix, off = values b mapped input in
    (ints_of b.len v, ix, off)
  and floats b mapped input =
    let v, ix, off = values b mapped input in
    (floats_of b.len v, ix, off)
  in
  (* AVG's result: each group's sum over its size *)
  let averages sums g =
    let avg = Array.make g 0. and c = !counts in
    for i = 0 to g - 1 do
      avg.(i) <- sums.(i) /. float_of_int c.(i)
    done;
    Column.make (Column.Floats avg)
  in
  let count_acc =
    { grow = ignore; step = (fun _ _ _ -> ());
      result = (fun g -> Column.make (Column.Ints (trim !counts g))) }
  in
  (* MIN, MAX and FIRST keep the first value on ties, exactly as
     [Aggregate.step] does: a later value replaces it only when it
     compares strictly better; [dir] is 0 for FIRST *)
  let dir (fn : Aggregate.fn) =
    match fn with Aggregate.Min _ -> -1 | Aggregate.Max _ -> 1 | _ -> 0
  in
  let make_acc (a : Aggregate.t) input =
    match input with
    | None -> count_acc
    | Some input -> (
      match (a.fn, src_ty input) with
      | Aggregate.Count, _ -> count_acc
      | Aggregate.Sum _, Value.Tint ->
        let sums = ref (Array.make cap0 0) in
        { grow = (fun c -> sums := grown !sums c 0);
          step =
            (fun b gid mapped ->
               let a, ix, off = ints b mapped input and s = !sums in
               let flat = ix == direct in
               for k = 0 to b.len - 1 do
                 let g = gid.(k) in
                 s.(g) <- s.(g) + int_at a flat ix off k
               done);
          result = (fun g -> Column.make (Column.Ints (trim !sums g))) }
      | Aggregate.Avg _, Value.Tint ->
        let sums = ref (Array.make cap0 0.) in
        { grow = (fun c -> sums := grown !sums c 0.);
          step =
            (fun b gid mapped ->
               let a, ix, off = ints b mapped input and s = !sums in
               let flat = ix == direct in
               for k = 0 to b.len - 1 do
                 let g = gid.(k) in
                 s.(g) <- s.(g) +. float_of_int (int_at a flat ix off k)
               done);
          result = (fun g -> averages !sums g) }
      | (Aggregate.Sum _ | Aggregate.Avg _), _ ->
        (* SUM seeds from the group's first value, like [Aggregate.step]
           (0. +. -0. would lose the sign); AVG starts from 0. and adds
           every value, like [Aggregate.S_avg] *)
        let seeds = match a.fn with Aggregate.Sum _ -> true | _ -> false in
        let sums = ref (Array.make cap0 0.) in
        { grow = (fun c -> sums := grown !sums c 0.);
          step =
            (fun b gid mapped ->
               let a, ix, off = floats b mapped input
               and s = !sums and g0 = !g0 in
               let flat = ix == direct in
               for k = 0 to b.len - 1 do
                 let g = gid.(k) and x = float_at a flat ix off k in
                 s.(g) <-
                   (if seeds && born_at born g0 g k then x
                    else add_float s.(g) x)
               done);
          result =
            (fun g ->
               if seeds then Column.make (Column.Floats (trim !sums g))
               else averages !sums g) }
      | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), Value.Tint ->
        let best = ref (Array.make cap0 0) and dir = dir a.fn in
        { grow = (fun c -> best := grown !best c 0);
          step =
            (fun b gid mapped ->
               let a, ix, off = ints b mapped input
               and m = !best and g0 = !g0 in
               let flat = ix == direct in
               for k = 0 to b.len - 1 do
                 let g = gid.(k) and x = int_at a flat ix off k in
                 if born_at born g0 g k || dir * Int.compare x m.(g) > 0 then
                   m.(g) <- x
               done);
          result = (fun g -> Column.make (Column.Ints (trim !best g))) }
      | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), Value.Tfloat
        ->
        let best = ref (Array.make cap0 0.) and dir = dir a.fn in
        { grow = (fun c -> best := grown !best c 0.);
          step =
            (fun b gid mapped ->
               let a, ix, off = floats b mapped input
               and m = !best and g0 = !g0 in
               let flat = ix == direct in
               for k = 0 to b.len - 1 do
                 let g = gid.(k) and x = float_at a flat ix off k in
                 if born_at born g0 g k || dir * compare_floats x m.(g) > 0 then
                   m.(g) <- x
               done);
          result =
            (fun g -> Column.make (Column.Floats (trim !best g))) }
      | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), _ ->
        (* bools and strings, only ever a column of the table: each
           group's winning slot of the base column, gathered at the
           end *)
        let j = match input with Col j -> j | Mapped -> assert false in
        let c = src.bases.(j) in
        let best = ref (Array.make cap0 0) and dir = dir a.fn in
        { grow = (fun cap -> best := grown !best cap 0);
          step =
            (fun b gid _ ->
               let ix, off = b.pos j and m = !best and g0 = !g0 in
               let flat = ix == direct in
               for k = 0 to b.len - 1 do
                 let g = gid.(k) and s = slot_at flat ix off k in
                 if born_at born g0 g k || dir * Column.compare_at c s m.(g) > 0
                 then m.(g) <- s
               done);
          result = (fun g -> Column.gather c (trim !best g)) })
  in
  let accs = Array.of_list (List.map2 make_acc aggs srcs) in
  let grow () =
    let c = 2 * !cap in
    counts := grown !counts c 0;
    lfirst := grown !lfirst c 0;
    if src.paired then rfirst := grown !rfirst c 0;
    Array.iter (fun a -> a.grow c) accs;
    cap := c
  in
  let none = Vector.VConst (Value.Int 0) in
  src.run (fun b ->
      let n = b.len in
      for i = 0 to Array.length steps - 1 do
        let st = steps.(i) in
        let ix, off = b.pos st.col in
        (match st.pre with
         | Some p -> ignore (densify p comb n)
         | None -> ());
        fold_key comb ~mult:(if i = 0 then 0 else st.d) ~codes:st.codes
          ~lo:st.lo ~ix ~off n
      done;
      (* keyless: every row's code is 0 *)
      if Array.length steps = 0 then Array.fill comb 0 n 0;
      g0 := final.count;
      (* room for every row of the block to start a group, up to the
         slot array's ids *)
      while !cap < min (!g0 + n) ids_bound do
        grow ()
      done;
      let nb = densify final ~sizes:!counts ~born comb n in
      Option.iter (fun a -> Array.blit comb 0 a b.start n) ids;
      (* each new group's first row *)
      let g0 = !g0 and lf = !lfirst and rf = !rfirst in
      if src.paired then
        for i = 0 to nb - 1 do
          lf.(g0 + i) <- b.lrows.(born.(i));
          rf.(g0 + i) <- b.rrows.(born.(i))
        done
      else
        for i = 0 to nb - 1 do
          lf.(g0 + i) <- b.start + born.(i)
        done;
      let mapped =
        match map with
        | Some (_, prog) -> Vector.run prog src.bases ~len:n ~sel:b.sel
        | None -> none
      in
      for a = 0 to Array.length accs - 1 do
        accs.(a).step b comb mapped
      done);
  let groups = final.count in
  if kis <> [] || (n > 0 && aggs <> []) then
    Table.of_columns out_schema
      (Array.append
         (Array.map
            (fun st ->
               Column.gather src.bases.(st.col)
                 (src.slots st.col (trim !lfirst groups)
                    (if src.paired then trim !rfirst groups else [||])))
            steps)
         (Array.map (fun a -> a.result groups) accs))
  else
    (* a keyless GROUP BY yields one row even with no aggregate, and
       over an empty input the row kernel's initial states *)
    Table.create_unchecked out_schema
      [| Array.of_list
           (List.map
              (fun (a : Aggregate.t) ->
                 Aggregate.finish a.fn (Aggregate.init a.fn))
              aggs) |]

(* The GROUP BY's plan over [t], or read through the MAP [target :=
   prog] of [t]: its key columns, their codes and the aggregation
   inputs, or the reason it refuses. *)
let group_plan t ~map ~keys ~aggs =
  let schema = Table.schema t in
  let gschema =
    match map with
    | Some (target, prog) ->
      Schema.with_column schema { Schema.name = target; ty = Vector.ty prog }
    | None -> schema
  in
  let mapped i =
    match map with
    | Some (target, _) -> Schema.index_of gschema target = i
    | None -> false
  in
  (* same Not_found as the row path on unknown keys or inputs *)
  let kis = List.map (Schema.index_of gschema) keys in
  let srcs =
    List.map
      (fun (a : Aggregate.t) ->
         Option.map
           (fun c ->
              let i = Schema.index_of gschema c in
              if mapped i then Mapped else Col i)
           (Aggregate.input_column a.fn))
      aggs
  in
  let limit = max 4096 (2 * Table.row_count t) in
  let src = table_source t in
  let key_cols =
    List.filter_map
      (fun i -> if mapped i then None else int_keys src.bases.(i))
      kis
  in
  let scols = Array.of_list (Schema.columns gschema) in
  let src_ty = function
    | Col i -> scols.(i).Schema.ty
    | Mapped -> (match map with Some (_, p) -> Vector.ty p | None -> assert false)
  in
  (* float keys (row-path NaN semantics), repeated keys (a duplicate
     output column) and SUM/AVG over non-numeric inputs (a schema
     error) stay on rows *)
  if List.exists mapped kis then Error "target_key"
  else if List.length key_cols <> List.length kis then Error "float_key"
  else if List.length (List.sort_uniq Int.compare kis) <> List.length kis then
    Error "repeated_key"
  else if
    not
      (List.for_all2
         (fun (a : Aggregate.t) src ->
            match src with
            | None -> true
            | Some src -> summable a.fn (src_ty src))
         aggs srcs)
  then Error "non_numeric_agg"
  else
    (* same output schema construction as the serial kernel *)
    let out_schema =
      Schema.make
        (List.map (fun i -> scols.(i)) kis
         @ List.map2
             (fun (a : Aggregate.t) src ->
                { Schema.name = a.as_name;
                  ty =
                    Aggregate.result_type a.fn ~input:(Option.map src_ty src) })
             aggs srcs)
    in
    Ok
      (fun ?ids () ->
         group_run ?ids t src ~map ~out_schema ~kis ~aggs ~srcs ~src_ty
           ~bases_keys:(List.map (key_codes limit) key_cols))

let try_group_by t ~keys ~aggs =
  if not (Column.enabled ()) then fallback "disabled"
  else
    match group_plan t ~map:None ~keys ~aggs with
    | Error reason -> fallback reason
    | Ok run ->
      mark "group_by";
      Some (run ())

(* ---- MAP → GROUP BY ---- *)

type map_group_by = {
  grouped : Table.t;
  map_bytes : int array;
}

let try_map_group_by t ~target ~expr ~keys ~aggs =
  if not (Column.enabled ()) then refused "map_group_by" "disabled"
  else begin
    let schema = Table.schema t in
    match Vector.compile schema expr with
    | None -> refused "map_group_by" "not_vectorizable"
    | Some prog when Vector.ty prog <> Value.Tint && Vector.ty prog <> Value.Tfloat
      ->
      refused "map_group_by" "non_numeric_target"
    | Some prog -> (
      match group_plan t ~map:(Some (target, prog)) ~keys ~aggs with
      | Error reason -> refused "map_group_by" reason
      | Ok run ->
        mark "map_group_by";
        let grouped = run () in
        (* the MAP's table: the input's columns, the target 8 bytes a
           row *)
        Some
          { grouped;
            map_bytes =
              put schema target (Table.column_bytes t)
                (8 * Table.row_count t) })
  end

(* ---- the arg-min diamond ---- *)

type argmin_selected = {
  d_schema : Schema.t;
  d_view : Table.view;  (** the survivors' CROSS and MAP columns *)
  group_of : int array;  (** each survivor's group: its row of [best] *)
  pairs : int;
}

type argmin = {
  groups : Table.t;
  cross_bytes : int array;
  map_bytes : int array;
  selected : argmin_selected;
}

(* Each left row's pairs are a run of the CROSS's order, so one pass
   over the pairs, a MIN-scan sink, keeps per left row its MIN, the
   first right row holding it and how many do. A group's MIN is then its
   rows' MIN, and its survivors the pairs of the rows whose MIN equals
   it: the one pair already found, or, for a row with ties, that row's
   pairs evaluated again. MIN is in pair order with strict comparison,
   so the first value seen is kept, as in [Aggregate.step]. *)
let argmin_run left right ~cross_schema ~d_schema ~target ~prog ~key ~min_as
    =
  mark "argmin";
  let ty = Vector.ty prog in
  (* with no right row there is no pair, and no left row is grouped *)
  let nr = Table.row_count right and rv = Table.parts right in
  let nl = if nr = 0 then 0 else Table.row_count left in
  let lv =
    if nr = 0 then Table.reindex (Table.parts left) [||] else Table.parts left
  in
  let pairs = nl * nr in
  let cross lo hi = pair_source lv rv (Table.Cross { lo; hi; nr }) in
  (* the MIN-scan sink: a CROSS's block holds whole left rows, so row
     l's pairs are the run [o, o + nr) that starts at [l]'s first pair;
     a later value replaces the MIN only when strictly below it *)
  let first = Array.make nl 0 and ties = Array.make nl 0 in
  let lmin =
    match ty with
    | Value.Tfloat ->
      let m = Array.make nl 0. in
      each (cross 0 nl) prog (fun b v ->
          let a = floats_of b.len v in
          for row = 0 to (b.len / nr) - 1 do
            let o = row * nr in
            let best = ref a.(o) and at = ref 0 and tied = ref 1 in
            for q = o + 1 to o + nr - 1 do
              let c = compare_floats a.(q) !best in
              if c < 0 then begin
                best := a.(q);
                at := q - o;
                tied := 1
              end
              else if c = 0 then incr tied
            done;
            let l = b.lrows.(o) in
            m.(l) <- !best;
            first.(l) <- !at;
            ties.(l) <- !tied
          done);
      Column.make (Column.Floats m)
    | _ ->
      let m = Array.make nl 0 in
      each (cross 0 nl) prog (fun b v ->
          let a = ints_of b.len v in
          for row = 0 to (b.len / nr) - 1 do
            let o = row * nr in
            let best = ref a.(o) and at = ref 0 and tied = ref 1 in
            for q = o + 1 to o + nr - 1 do
              let c = Int.compare a.(q) !best in
              if c < 0 then begin
                best := a.(q);
                at := q - o;
                tied := 1
              end
              else if c = 0 then incr tied
            done;
            let l = b.lrows.(o) in
            m.(l) <- !best;
            first.(l) <- !at;
            ties.(l) <- !tied
          done);
      Column.make (Column.Ints m)
  in
  (* the GROUP BY: a blocked pass over the left rows' keys and MINs,
     which also gives each left row its group *)
  let gcode = Array.make nl 0 in
  let groups =
    let ls = Table.schema left in
    let ki = Schema.index_of ls key in
    let t =
      Table.of_view
        (Schema.make
           [ List.nth (Schema.columns ls) ki; { Schema.name = target; ty } ])
        ~rows:nl
        { lv with vcols = [| lv.vcols.(ki); (lmin, -1) |] }
    in
    match
      group_plan t ~map:None ~keys:[ key ]
        ~aggs:[ Aggregate.make (Aggregate.Min target) ~as_name:min_as ]
    with
    | Ok run -> run ~ids:gcode ()
    | Error _ -> assert false
  in
  let ngroups = Table.row_count groups in
  (* whether left row l's MIN is its group's *)
  let wins =
    match (lmin.Column.data, (Table.columns groups).(1).Column.data) with
    | Column.Floats a, Column.Floats m ->
      fun l -> compare_floats a.(l) m.(gcode.(l)) = 0
    | Column.Ints a, Column.Ints m -> fun l -> a.(l) = m.(gcode.(l))
    | _ -> assert false
  in
  (* the survivors, newest first, each with its own value (-0.0 equals
     0.0 but prints apart) *)
  let kept = ref [] in
  let keep l r v = kept := (l, r, v) :: !kept in
  for l = 0 to nl - 1 do
    if wins l then
      let m = Column.get lmin l in
      if ties.(l) = 1 then keep l first.(l) m
      else
        each (cross l (l + 1)) prog (fun b c ->
            for k = 0 to b.len - 1 do
              let v =
                match c with
                | Vector.VFloat a -> Value.Float a.(k)
                | Vector.VInt a -> Value.Int a.(k)
                | Vector.VConst v -> v
                | _ -> assert false
              in
              if Value.compare v m = 0 then keep l b.rrows.(k) v
            done)
  done;
  (* the JOIN's order: groups (the rows of [best]) in turn, each one's
     pairs newest first *)
  let kept = Array.of_list !kept in
  let _, order =
    place ~keys:ngroups (Array.map (fun (l, _, _) -> gcode.(l)) kept)
  in
  let placed = Array.map (Array.get kept) order in
  let group_of = Array.map (fun (l, _, _) -> gcode.(l)) placed in
  let values = Column.of_values ty (Array.map (fun (_, _, v) -> v) placed) in
  let d_view =
    let v =
      Table.pair_view lv rv
        ( Array.map (fun (l, _, _) -> l) placed,
          Array.map (fun (_, r, _) -> r) placed )
    in
    { v with vcols = put cross_schema target v.vcols (values, -1) }
  in
  (* every row of each side is in some pair, unless there are none *)
  let cross_bytes =
    Array.append (Table.spread_bytes lv ~pairs) (Table.spread_bytes rv ~pairs)
  in
  { groups; cross_bytes;
    map_bytes = put cross_schema target cross_bytes (8 * pairs);
    selected = { d_schema; d_view; group_of; pairs } }

let try_argmin left right ~target ~expr ~key ~min_as ~min_column =
  if not (Column.enabled ()) then refused "argmin" "disabled"
  else begin
    let ls = Table.schema left in
    (* same schema (and same clash error) as the CROSS *)
    let cross_schema = Schema.concat ls (Table.schema right) in
    match Vector.compile cross_schema expr with
    | None -> refused "argmin" "not_vectorizable"
    | Some prog ->
      let ty = Vector.ty prog in
      let d_schema =
        Schema.with_column cross_schema { Schema.name = target; ty }
      in
      if ty <> Value.Tint && ty <> Value.Tfloat then
        refused "argmin" "non_numeric_min"
      else if key = target || not (Schema.mem ls key) then
        (* the groups are the left rows' keys *)
        refused "argmin" "key_not_left"
      else if Schema.column_type ls key = Value.Tfloat then
        refused "argmin" "float_key"
      else if Schema.mem d_schema min_column then
        (* the SELECT would compare with a column of [d], not [best] *)
        refused "argmin" "shadowed_min"
      else Some (argmin_run left right ~cross_schema ~d_schema ~target ~prog
                   ~key ~min_as)
  end

(* [best] has one row per group, in group order: the plan's shape makes
   it the GROUP BY's table carried through MAPs and PROJECTs *)
let argmin_join a best ~right_key =
  let sel = a.selected in
  if Table.row_count best <> Table.row_count a.groups then
    invalid_arg "Columnar.argmin_join: best is not one row per group";
  let bs = Table.schema best in
  let ri = Schema.index_of bs right_key in
  let keep = List.filteri (fun j _ -> j <> ri) (Schema.columns bs) in
  let out_schema =
    if keep = [] then sel.d_schema
    else Schema.concat sel.d_schema (Schema.make keep)
  in
  let bv = Table.parts best in
  let bv =
    { bv with
      vcols =
        Array.of_list
          (List.filteri (fun j _ -> j <> ri) (Array.to_list bv.vcols)) }
  in
  { table =
      Table.of_view out_schema ~rows:(Array.length sel.group_of)
        (Table.concat_views sel.d_view (Table.reindex bv sel.group_of));
    pairs = sel.pairs;
    (* every pair matches its group's one row of [best] *)
    join_bytes =
      Array.append a.map_bytes (Table.spread_bytes bv ~pairs:sel.pairs) }
