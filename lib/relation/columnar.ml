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
      let vcols =
        if Schema.mem schema target then begin
          let out = Array.copy v.vcols in
          out.(Schema.index_of schema target) <- entry;
          out
        end
        else Array.append v.vcols [| entry |]
      in
      Some (Table.of_view out_schema ~rows:n { v with vcols })
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
  let n = Array.length a in
  let out = Array.make n (-1) in
  (match index with
   | Slots { lo; hi; slot } ->
     for i = 0 to n - 1 do
       let k = a.(i) in
       if k >= lo && k <= hi then out.(i) <- slot.(k - lo)
     done
   | Probe { keys; ids; mask } ->
     for i = 0 to n - 1 do
       let k = a.(i) in
       let h = ref (mix k land mask) in
       while ids.(!h) >= 0 && keys.(!h) <> k do
         h := (!h + 1) land mask
       done;
       out.(i) <- ids.(!h)
     done);
  out

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
        let (bkey, bvia, nb), (pkey, pvia, nprobe) =
          let l = side lv li (Table.row_count left)
          and r = side rv ri (Table.row_count right) in
          if build_left then (l, r) else (r, l)
        in
        let bbase, groups, index = dense_codes (Option.get (int_keys bkey)) in
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
            let entry_code =
              lookup_codes index (Array.init (Array.length bdict) Fun.id)
            in
            let by_string = Hashtbl.create (max 16 groups) in
            Array.iteri
              (fun e s ->
                 if entry_code.(e) >= 0 then
                   Hashtbl.replace by_string s entry_code.(e))
              bdict;
            let pmap =
              Array.map
                (fun s ->
                   Option.value (Hashtbl.find_opt by_string s) ~default:(-1))
                pdict
            in
            Array.map (fun c -> pmap.(c)) pkeys
          | _ -> lookup_codes index pkeys
        in
        let bstart = Array.make (groups + 1) 0 in
        for b = 0 to nb - 1 do
          let c = bcode.(b) in
          bstart.(c + 1) <- bstart.(c + 1) + 1
        done;
        for c = 1 to groups do
          bstart.(c) <- bstart.(c) + bstart.(c - 1)
        done;
        let fill = Array.sub bstart 0 groups in
        let brows = Array.make nb 0 in
        for b = nb - 1 downto 0 do
          let c = bcode.(b) in
          brows.(fill.(c)) <- b;
          fill.(c) <- fill.(c) + 1
        done;
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

(* ---- JOIN → SELECT ---- *)

type join_select = {
  table : Table.t;
  pairs : int;
  join_bytes : int array;
}

(* a refusal of the fused kernel: the caller runs the plain JOIN, which
   may still take the columnar path, so these stay out of
   [kernel.fallback.*] *)
let refused reason =
  Obs.Metrics.incr Obs.Metrics.default ("kernel.join_select.refused." ^ reason);
  None

(* pairs per expression evaluation in the pair kernels: they hold no
   index of the pair count, and a block's arrays stay small enough for
   the minor heap *)
let pair_block = 256

(* The survivors, given in chunks in [iter_pairs]'s order with
   [counts.(r)] of them on right row r, each placed at its right row's
   next slot: a counting sort by right row, stable in the order given,
   so they come out in the serial kernel's order. *)
let place_by_right counts chunks =
  let nr = Array.length counts in
  let next = Array.make nr 0 in
  let total = ref 0 in
  for r = 0 to nr - 1 do
    next.(r) <- !total;
    total := !total + counts.(r)
  done;
  let lidx = Array.make !total 0 and ridx = Array.make !total 0 in
  List.iter
    (fun (sl, sr) ->
       for k = 0 to Array.length sl - 1 do
         let r = sr.(k) in
         let p = next.(r) in
         lidx.(p) <- sl.(k);
         ridx.(p) <- r;
         next.(r) <- p + 1
       done)
    chunks;
  (lidx, ridx)

(* The selection of a view's column groups over a block of its rows,
   made once per kernel call: [set rows n] moves it to a block whose row
   k, for k < n, is row [rows.(k)] of the view, and [sel g] is group
   [g]'s selection for it (-1: the row-aligned columns). A group reads
   its base through its index composed with the block's rows: composed
   once per group and block, only for the groups a program reads, into
   a buffer reused from block to block. *)
let side_sel (v : Table.view) =
  let groups = Array.length v.idx in
  let composed = Array.make groups [||] and ready = Array.make groups false in
  let buf = ref [||] and len = ref 0 in
  let set b n =
    buf := b;
    len := n;
    Array.fill ready 0 groups false
  in
  let sel g =
    if g < 0 then Vector.Sparse !buf
    else begin
      if not ready.(g) then begin
        let b = !buf and ix = v.idx.(g) in
        if Array.length composed.(g) < !len then
          composed.(g) <- Array.make !len 0;
        let out = composed.(g) in
        for k = 0 to !len - 1 do
          out.(k) <- ix.(b.(k))
        done;
        ready.(g) <- true
      end;
      Vector.Sparse composed.(g)
    end
  in
  (set, sel)

(* The selection of each of [lv]'s columns then [rv]'s over a block of
   pairs: [set lbuf rbuf n] moves it to a block whose pair k, for k <
   n, is left row [lbuf.(k)] and right row [rbuf.(k)]. *)
let pair_sel (lv : Table.view) (rv : Table.view) =
  let lset, lsel = side_sel lv and rset, rsel = side_sel rv in
  let nleft = Array.length lv.vcols in
  ( (fun lbuf rbuf n ->
        lset lbuf n;
        rset rbuf n),
    fun i ->
      if i < nleft then lsel (snd lv.vcols.(i))
      else rsel (snd rv.vcols.(i - nleft)) )

(* The smaller side is the build side, so no array is sized by the
   larger input (k-means' 120,000-row [d] probes 1,200 buckets), and
   only the survivors are placed. The predicate is compiled once, by
   the refusal check, and run on each block. *)
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
  | Error reason -> refused reason
  | Ok (out_schema, m) ->
    let prog = Option.get !prog in
    let bases =
      Array.append (Array.map fst m.Table.lv.vcols) (Array.map fst m.rv.vcols)
    in
    mark "join_select";
    let set_block, sel = pair_sel m.lv m.rv in
    let counts = Array.make (Table.row_count right) 0 in
    let kept = ref [] in
    Table.iter_pairs m ~block:pair_block (fun lb rb n ->
        set_block lb rb n;
        let mask =
          Vector.to_mask ~length:n (Vector.run prog bases ~len:n ~sel)
        in
        let hits = ref 0 in
        for k = 0 to n - 1 do
          if mask.(k) then incr hits
        done;
        let sl = Array.make !hits 0 and sr = Array.make !hits 0 in
        let j = ref 0 in
        for k = 0 to n - 1 do
          if mask.(k) then begin
            let r = rb.(k) in
            sl.(!j) <- lb.(k);
            sr.(!j) <- r;
            counts.(r) <- counts.(r) + 1;
            incr j
          end
        done;
        kept := (sl, sr) :: !kept);
    let lidx, ridx = place_by_right counts (List.rev !kept) in
    Some
      { table =
          Table.of_view out_schema ~rows:(Array.length lidx)
            (Table.matches_view m lidx ridx);
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

let sparse = function
  | Vector.Sparse ix -> ix
  | Vector.Dense -> invalid_arg "Columnar: a block read without an index"

(* Where block row k of a column is in its base: with [ix == direct],
   slot [off + k]; otherwise slot [ix.(off + k)]. A loop tests
   [ix == direct] once, as [flat]. An index a block reads is never
   empty, since blocks hold at least one row. *)
let direct : int array = [||]

let[@inline] slot_at flat ix off k = if flat then off + k else ix.(off + k)

let[@inline] int_at (a : int array) flat ix off k =
  if flat then a.(off + k) else a.(ix.(off + k))

let[@inline] float_at (a : float array) flat ix off k =
  if flat then a.(off + k) else a.(ix.(off + k))

(* A table read in blocks of at most [pair_block] rows, in row order,
   whatever its form: [run f] calls [f start n pos sel] on each block,
   whose row k, for k < n, is row [start + k] of the table. Column j of
   the block is [pos j] into its base [bases.(j)], and [sel j] the same
   rows as a selection for {!Vector.run}. A plain column or a view's
   group is read in place at offset [start]; a JOIN's matches are read
   pair by pair, with no pair index. *)
type reader = {
  bases : Column.t array;
  run :
    (int -> int -> (int -> int array * int) -> (int -> Vector.sel) -> unit) ->
    unit;
  slots : (int -> int array -> int array) option;
      (** for a table that holds its rows, [slots j rows]: the slots of
          [rows] in column j's base *)
}

let reader t =
  match Table.matches t with
  | Some m ->
    { bases =
        Array.append (Array.map fst m.Table.lv.vcols) (Array.map fst m.rv.vcols);
      run =
        (fun f ->
           let set, sel = pair_sel m.lv m.rv in
           let pos j = (sparse (sel j), 0) in
           let start = ref 0 in
           Table.iter_pairs m
             ~block:(max 1 (min m.pairs pair_block))
             (fun lb rb n ->
               set lb rb n;
               f !start n pos sel;
               start := !start + n));
      slots = None }
  | None ->
    let v = Table.parts t and n = Table.row_count t in
    { bases = Array.map fst v.vcols;
      run =
        (fun f ->
           let set, gsel = side_sel v in
           (* the block's rows, made and written only when a program
              reads them *)
           let rows = ref [||] and filled = ref false in
           let start = ref 0 and len = ref 0 in
           let sel j =
             if not !filled then begin
               if Array.length !rows = 0 then rows := Array.make (min n pair_block) 0;
               let rs = !rows in
               for k = 0 to !len - 1 do
                 rs.(k) <- !start + k
               done;
               set rs !len;
               filled := true
             end;
             gsel (snd v.vcols.(j))
           in
           let pos j =
             match v.vcols.(j) with
             | _, -1 -> (direct, !start)
             | _, g -> (v.idx.(g), !start)
           in
           while !start < n do
             len := min pair_block (n - !start);
             filled := false;
             f !start !len pos sel;
             start := !start + !len
           done);
      slots =
        Some
          (fun j rows ->
             match v.vcols.(j) with
             | _, -1 -> rows
             | _, g -> Table.compose v.idx.(g) rows) }

(* A key's codes off its base column, [(codes, lo, d)]: row r's code is
   [codes.(r) - lo], below [d]. A key whose values span a narrow range
   is its own code, offset by its minimum; a wider one is dense-coded. *)
let key_codes limit (keys : int array) =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  let lo = !lo and hi = !hi in
  (* [hi - lo] wraps negative when the span exceeds max_int *)
  if Array.length keys = 0 then (keys, 0, 1)
  else if hi - lo >= 0 && hi - lo < limit then (keys, lo, hi - lo + 1)
  else
    let codes, d, _ = dense_codes keys in
    (codes, 0, d)

(* Dense ids for codes below [range], in the order the codes first
   appear across every block: a slot array when the range is at most
   [limit], else an open-addressing table of [expect] ids that doubles
   as it fills. *)
type ids = {
  hashed : bool;
  mutable table : int array;
      (** the id of each code, or -1; hashed: the id at each probe slot *)
  mutable held : int array;  (** hashed: the code at each probe slot *)
  mutable count : int;
}

let ids ~range ~limit ~expect =
  if range <= limit then
    { hashed = false; table = Array.make range (-1); held = [||]; count = 0 }
  else
    let slots = pow2_above (2 * expect) 16 in
    { hashed = true; table = Array.make slots (-1);
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

(* [comb.(k) <- comb.(k) * mult + codes.(at k) - lo] for each row k < n
   of a block, where [at] reads [ix] at [off] by {!slot_at}: one key
   folded into the running codes ([mult = 0] for the first). *)
let fold_key (comb : int array) ~mult ~(codes : int array) ~lo ~ix ~off n =
  let flat = ix == direct in
  for k = 0 to n - 1 do
    comb.(k) <- (comb.(k) * mult) + int_at codes flat ix off k - lo
  done

(* Rewrites each row k < n of [comb] with the id of its code, and with
   [~sizes] adds 1 to [sizes.(id)], which must hold [count + n] ids. The
   rows that take a new id are listed in [born], in order, and their
   count returned: the i-th takes id [count + i] of [d] before the
   call. *)
let densify ?sizes d (comb : int array) n (born : int array) =
  let sizes, sized =
    match sizes with Some s -> (s, true) | None -> ([||], false)
  in
  let nb = ref 0 and count = ref d.count in
  if not d.hashed then begin
    let slot = d.table in
    for k = 0 to n - 1 do
      let c = comb.(k) in
      let g = slot.(c) in
      let g =
        if g >= 0 then g
        else begin
          let g = !count in
          slot.(c) <- g;
          count := g + 1;
          born.(!nb) <- k;
          incr nb;
          g
        end
      in
      comb.(k) <- g;
      if sized then sizes.(g) <- sizes.(g) + 1
    done
  end
  else begin
    let table = ref d.table and keys = ref d.held in
    let mask = ref (Array.length !table - 1) in
    for k = 0 to n - 1 do
      let c = comb.(k) in
      let t = !table and ks = !keys and m = !mask in
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
          born.(!nb) <- k;
          incr nb;
          if 2 * (g + 1) > m then begin
            d.count <- g + 1;
            rehash d;
            table := d.table;
            keys := d.held;
            mask := Array.length d.table - 1
          end;
          g
        end
      in
      comb.(k) <- g;
      if sized then sizes.(g) <- sizes.(g) + 1
    done
  end;
  d.count <- !count;
  !nb

(* One key of the fold: its column, its codes, and the ids the running
   code is re-densified through first, when folding it in could
   overflow. *)
type key_step = {
  col : int;
  codes : int array;
  lo : int;
  d : int;
  pre : ids option;
}

(* an aggregation's input: a column of the table, or the absorbed
   MAP's values *)
type source =
  | Col of int
  | Mapped

(* One aggregation's per-group state, grown with the group count:
   [step start n gid pos mapped] folds in a block whose row k has group
   [gid.(k)] and table row [start + k], its columns at [pos] and the
   MAP's values in [mapped]; [result groups] is its output column. *)
type acc = {
  grow : int -> unit;
  step :
    int -> int -> int array -> (int -> int array * int) -> Vector.vec -> unit;
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

(* [Float.compare], with the ordered cases inline *)
let[@inline] compare_floats (x : float) y =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else Float.compare x y

(* The columnar GROUP BY, one blocked pass over [t] read by [r]: each
   block's key codes are folded into one code per row, mapped to group
   ids in first appearance, and every aggregation updated in the same
   pass; no array of the row count is built. With [map = Some (target,
   prog)], the GROUP BY reads the MAP [target := prog] of [t] instead
   of [t], the program run once per block. [kis] are the key columns
   and [srcs] the aggregation inputs, both in the GROUP BY's input
   schema; no key is the MAP's target. *)
let group_run t r ~map ~out_schema ~kis ~aggs ~srcs ~bases_keys =
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
                let p = ids ~range:!range ~limit ~expect:(min !range n) in
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
  let final = ids ~range:!range ~limit ~expect in
  let ids_bound = if final.hashed then max_int else !range in
  let cap = ref (max 1 expect) in
  let cap0 = !cap in
  (* per group: its size, each key's base slot and its first row. A
     table that holds its rows finds the slots from the first rows; a
     JOIN's matches keep them per key, and the first rows only when an
     aggregation seeds from them *)
  let src_ty = function
    | Col j -> Column.ty r.bases.(j)
    | Mapped -> Vector.ty (snd (Option.get map))
  in
  let seeded =
    r.slots <> None
    || List.exists2
         (fun (a : Aggregate.t) src ->
            match (a.fn, Option.map src_ty src) with
            | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), _ ->
              true
            | Aggregate.Sum _, Some ty -> ty = Value.Tfloat
            | _ -> false)
         aggs srcs
  in
  let first = ref (Array.make (if seeded then cap0 else 0) 0)
  and counts = ref (Array.make cap0 0) in
  let keyrows =
    if r.slots = None then Array.map (fun _ -> Array.make cap0 0) steps
    else [||]
  in
  (* block scratch: the running code, then the group id, of each row *)
  let block = max 1 (min n pair_block) in
  let comb = Array.make block 0 in
  let ints pos mapped = function
    | Col j -> (
      match r.bases.(j).Column.data with
      | Column.Ints a ->
        let ix, off = pos j in
        (a, ix, off)
      | _ -> assert false)
    | Mapped -> (
      match mapped with
      | Vector.VInt a -> (a, direct, 0)
      | Vector.VConst (Value.Int x) -> (Array.make block x, direct, 0)
      | _ -> assert false)
  in
  let floats pos mapped = function
    | Col j -> (
      match r.bases.(j).Column.data with
      | Column.Floats a ->
        let ix, off = pos j in
        (a, ix, off)
      | _ -> assert false)
    | Mapped -> (
      match mapped with
      | Vector.VFloat a -> (a, direct, 0)
      | Vector.VConst (Value.Float x) -> (Array.make block x, direct, 0)
      | _ -> assert false)
  in
  let count_acc =
    { grow = ignore; step = (fun _ _ _ _ _ -> ());
      result = (fun g -> Column.make (Column.Ints (trim !counts g))) }
  in
  (* MIN, MAX and FIRST keep the first value on ties, exactly as
     [Aggregate.step] does: a later value replaces it only when it
     compares strictly better; [dir] is 0 for FIRST *)
  let dir (fn : Aggregate.fn) =
    match fn with Aggregate.Min _ -> -1 | Aggregate.Max _ -> 1 | _ -> 0
  in
  let make_acc (a : Aggregate.t) src =
    match src with
    | None -> count_acc
    | Some src -> (
      match (a.fn, src_ty src) with
      | Aggregate.Count, _ -> count_acc
      | Aggregate.Sum _, Value.Tint ->
        let sums = ref (Array.make cap0 0) in
        { grow = (fun c -> sums := grown !sums c 0);
          step =
            (fun _ n gid pos mapped ->
               let a, ix, off = ints pos mapped src and s = !sums in
               let flat = ix == direct in
               for k = 0 to n - 1 do
                 let g = gid.(k) in
                 s.(g) <- s.(g) + int_at a flat ix off k
               done);
          result = (fun g -> Column.make (Column.Ints (trim !sums g))) }
      | Aggregate.Sum _, _ ->
        (* SUM seeds from the group's first value, like [Aggregate.step]
           (0. +. -0. would lose the sign) *)
        let sums = ref (Array.make cap0 0.) in
        { grow = (fun c -> sums := grown !sums c 0.);
          step =
            (fun start n gid pos mapped ->
               let a, ix, off = floats pos mapped src
               and s = !sums and f = !first in
               let flat = ix == direct in
               for k = 0 to n - 1 do
                 let g = gid.(k) and x = float_at a flat ix off k in
                 s.(g) <-
                   (if f.(g) = start + k then x
                    else Aggregate.add_float s.(g) x)
               done);
          result =
            (fun g -> Column.make (Column.Floats (trim !sums g))) }
      | Aggregate.Avg _, ty ->
        (* AVG starts from 0. and adds every value, like
           [Aggregate.S_avg] *)
        let sums = ref (Array.make cap0 0.) in
        { grow = (fun c -> sums := grown !sums c 0.);
          step =
            (fun _ n gid pos mapped ->
               let s = !sums in
               if ty = Value.Tint then begin
                 let a, ix, off = ints pos mapped src in
                 let flat = ix == direct in
                 for k = 0 to n - 1 do
                   let g = gid.(k) in
                   s.(g) <- s.(g) +. float_of_int (int_at a flat ix off k)
                 done
               end
               else begin
                 let a, ix, off = floats pos mapped src in
                 let flat = ix == direct in
                 for k = 0 to n - 1 do
                   let g = gid.(k) in
                   s.(g) <- Aggregate.add_float s.(g) (float_at a flat ix off k)
                 done
               end);
          result =
            (fun g ->
               let s = !sums and c = !counts in
               Column.make
                 (Column.Floats
                    (Array.init g (fun i -> s.(i) /. float_of_int c.(i))))) }
      | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), Value.Tint ->
        let best = ref (Array.make cap0 0) and dir = dir a.fn in
        { grow = (fun c -> best := grown !best c 0);
          step =
            (fun start n gid pos mapped ->
               let a, ix, off = ints pos mapped src
               and b = !best and f = !first in
               let flat = ix == direct in
               for k = 0 to n - 1 do
                 let g = gid.(k) and x = int_at a flat ix off k in
                 if f.(g) = start + k || dir * Int.compare x b.(g) > 0 then
                   b.(g) <- x
               done);
          result = (fun g -> Column.make (Column.Ints (trim !best g))) }
      | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), Value.Tfloat
        ->
        let best = ref (Array.make cap0 0.) and dir = dir a.fn in
        { grow = (fun c -> best := grown !best c 0.);
          step =
            (fun start n gid pos mapped ->
               let a, ix, off = floats pos mapped src
               and b = !best and f = !first in
               let flat = ix == direct in
               for k = 0 to n - 1 do
                 let g = gid.(k) and x = float_at a flat ix off k in
                 if f.(g) = start + k || dir * compare_floats x b.(g) > 0 then
                   b.(g) <- x
               done);
          result =
            (fun g -> Column.make (Column.Floats (trim !best g))) }
      | (Aggregate.Min _ | Aggregate.Max _ | Aggregate.First _), _ ->
        (* bools and strings, only ever a column of the table: each
           group's winning slot of the base column, gathered at the
           end *)
        let j = match src with Col j -> j | Mapped -> assert false in
        let c = r.bases.(j) in
        let best = ref (Array.make cap0 0) and dir = dir a.fn in
        { grow = (fun cap -> best := grown !best cap 0);
          step =
            (fun start n gid pos _ ->
               let ix, off = pos j and b = !best and f = !first in
               let flat = ix == direct in
               for k = 0 to n - 1 do
                 let g = gid.(k) and s = slot_at flat ix off k in
                 if f.(g) = start + k || dir * Column.compare_at c s b.(g) > 0
                 then b.(g) <- s
               done);
          result = (fun g -> Column.gather c (trim !best g)) })
  in
  let accs = Array.of_list (List.map2 make_acc aggs srcs) in
  let grow () =
    let c = 2 * !cap in
    if seeded then first := grown !first c 0;
    counts := grown !counts c 0;
    Array.iteri (fun i a -> keyrows.(i) <- grown a c 0) keyrows;
    Array.iter (fun a -> a.grow c) accs;
    cap := c
  in
  (* each key's position in the block *)
  let kix = Array.make (Array.length steps) direct
  and koff = Array.make (Array.length steps) 0 in
  (* the block rows that start a group *)
  let born = Array.make block 0 in
  let none = Vector.VConst (Value.Int 0) in
  r.run (fun start n pos sel ->
      for i = 0 to Array.length steps - 1 do
        let st = steps.(i) in
        let ix, off = pos st.col in
        kix.(i) <- ix;
        koff.(i) <- off;
        (match st.pre with
         | Some p -> ignore (densify p comb n born)
         | None -> ());
        fold_key comb ~mult:(if i = 0 then 0 else st.d) ~codes:st.codes
          ~lo:st.lo ~ix ~off n
      done;
      (* keyless: every row's code is 0 *)
      if Array.length steps = 0 then Array.fill comb 0 n 0;
      let g0 = final.count in
      (* room for every row of the block to start a group, up to the
         slot array's ids *)
      while !cap < min (g0 + n) ids_bound do
        grow ()
      done;
      let nb = densify final ~sizes:!counts comb n born in
      (* the new groups: their first row and each key's base slot *)
      for i = 0 to nb - 1 do
        let g = g0 + i and k = born.(i) in
        if seeded then !first.(g) <- start + k;
        for j = 0 to Array.length keyrows - 1 do
          keyrows.(j).(g) <- slot_at (kix.(j) == direct) kix.(j) koff.(j) k
        done
      done;
      let mapped =
        match map with
        | Some (_, prog) -> Vector.run prog r.bases ~len:n ~sel
        | None -> none
      in
      for a = 0 to Array.length accs - 1 do
        accs.(a).step start n comb pos mapped
      done);
  let groups = final.count in
  if kis <> [] || (n > 0 && aggs <> []) then
    Table.of_columns out_schema
      (Array.of_list
         (Array.to_list
            (Array.mapi
               (fun i st ->
                  Column.gather r.bases.(st.col)
                    (match r.slots with
                     | Some slots -> slots st.col (trim !first groups)
                     | None -> trim keyrows.(i) groups))
               steps)
          @ Array.to_list (Array.map (fun a -> a.result groups) accs)))
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
  let r = reader t in
  let key_cols =
    List.filter_map
      (fun i -> if mapped i then None else int_keys r.bases.(i))
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
      (fun () ->
         group_run t r ~map ~out_schema ~kis ~aggs ~srcs
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

let map_group_by_refused reason =
  Obs.Metrics.incr Obs.Metrics.default ("kernel.map_group_by.refused." ^ reason);
  None

let try_map_group_by t ~target ~expr ~keys ~aggs =
  if not (Column.enabled ()) then map_group_by_refused "disabled"
  else begin
    let schema = Table.schema t in
    match Vector.compile schema expr with
    | None -> map_group_by_refused "not_vectorizable"
    | Some prog when Vector.ty prog <> Value.Tint && Vector.ty prog <> Value.Tfloat
      ->
      map_group_by_refused "non_numeric_target"
    | Some prog -> (
      match group_plan t ~map:(Some (target, prog)) ~keys ~aggs with
      | Error reason -> map_group_by_refused reason
      | Ok run ->
        mark "map_group_by";
        let grouped = run () in
        (* the MAP's table: the input's columns, the target 8 bytes a
           row *)
        let bytes = Table.column_bytes t in
        let target_bytes = 8 * Table.row_count t in
        let map_bytes =
          if Schema.mem schema target then begin
            let b = Array.copy bytes in
            b.(Schema.index_of schema target) <- target_bytes;
            b
          end
          else Array.append bytes [| target_bytes |]
        in
        Some { grouped; map_bytes })
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

let argmin_refused reason =
  Obs.Metrics.incr Obs.Metrics.default ("kernel.argmin.refused." ^ reason);
  None

(* [f lbuf rbuf n] on the pairs of left rows [lo, hi) × [nr] right
   rows in the CROSS's order — left-major, right-minor — in blocks of at
   most [pair_block] pairs that start at a left row's first pair: as
   many whole left rows as fit, or one left row's pairs in runs. Pair k
   of a block, for k < n, is [lbuf.(k)] × [rbuf.(k)]; the two buffers
   are reused from block to block. *)
let iter_cross ~lo ~hi nr f =
  let span = min nr pair_block in
  let rows = if nr = 0 then 0 else max 1 (pair_block / nr) in
  let len = rows * span in
  let lbuf = Array.make len 0 in
  let rbuf = Array.init len (fun k -> k mod span) in
  let i = ref (if nr = 0 then hi else lo) in
  while !i < hi do
    let take = min rows (hi - !i) in
    for row = 0 to take - 1 do
      Array.fill lbuf (row * span) span (!i + row)
    done;
    if span < nr then begin
      (* one left row, wider than a block, in runs *)
      let j = ref 0 in
      while !j < nr do
        let n = min span (nr - !j) in
        for k = 0 to n - 1 do
          rbuf.(k) <- !j + k
        done;
        f lbuf rbuf n;
        j := !j + n
      done
    end
    else f lbuf rbuf (take * nr);
    i := !i + take
  done

(* The {!Table.column_bytes} of [pairs] rows that read, between them,
   every row of [v]: what a CROSS's, MAP's or JOIN's table would give,
   computed from counts. Nothing is read when there are no pairs. *)
let spread_bytes (v : Table.view) ~pairs =
  Array.map
    (fun (c, g) ->
       if pairs = 0 then 0
       else if g < 0 then Column.encoded_bytes ~rows:pairs c
       else Column.encoded_bytes ~idx:v.idx.(g) ~rows:pairs c)
    v.vcols

(* Each left row's pairs are a run of the CROSS's order, so one pass
   over the pairs keeps, per left row, its MIN, the first right row
   holding it and how many do. A group's MIN is then its rows' MIN, and
   its survivors the pairs of the rows whose MIN equals it: the one
   pair already found, or, for a row with ties, that row's pairs
   evaluated again. MIN is in pair order with strict comparison, so the
   first value seen is kept, as in [Aggregate.step]. *)
let argmin_run left right ~cross_schema ~d_schema ~target ~prog ~key ~min_as
    =
  mark "argmin";
  let ty = Vector.ty prog in
  let nl = Table.row_count left and nr = Table.row_count right in
  let pairs = nl * nr in
  let lv = Table.parts left and rv = Table.parts right in
  let ls = Table.schema left in
  (* each left row's group: its key, dense-coded in first appearance *)
  let kcol, kidx =
    match lv.vcols.(Schema.index_of ls key) with
    | c, -1 -> (c, None)
    | c, g -> (c, Some lv.idx.(g))
  in
  let gcode, ngroups, _ =
    let base = Option.get (int_keys kcol) in
    dense_codes
      (match kidx with None -> base | Some ix -> Table.compose base ix)
  in
  let ngroups = if nr = 0 then 0 else ngroups in
  let bases = Array.append (Array.map fst lv.vcols) (Array.map fst rv.vcols) in
  let set_block, sel = pair_sel lv rv in
  (* the block's values: the program's scratch, valid until the next
     block *)
  let eval lbuf rbuf n =
    set_block lbuf rbuf n;
    Vector.run prog bases ~len:n ~sel
  in
  let first = Array.make nl 0 and ties = Array.make nl 0 in
  (* [segments a lbuf rbuf n ~reset ~scan] calls [scan a l ~r start
     stop] on each left row [l]'s run of a block, where slot [q] holds
     the pair of right row [r + q]. When the run holds the row's first
     pair, [reset a l k] first makes that pair's value the row's MIN,
     and the scan starts after it. *)
  let segments a lbuf rbuf n ~reset ~scan =
    let k = ref 0 in
    while !k < n do
      let l = lbuf.(!k) and r0 = rbuf.(!k) in
      let stop = min n (!k + nr - r0) in
      let start =
        if r0 = 0 then begin
          reset a l !k;
          first.(l) <- 0;
          ties.(l) <- 1;
          !k + 1
        end
        else !k
      in
      scan a l ~r:(r0 - !k) start stop;
      k := stop
    done
  in
  let lmin =
    match ty with
    | Value.Tfloat ->
      let m = Array.make nl 0. in
      let reset (a : float array) l k = m.(l) <- a.(k) in
      let scan (a : float array) l ~r start stop =
        let best = ref m.(l) and at = ref first.(l) and tied = ref ties.(l) in
        for q = start to stop - 1 do
          let x = a.(q) and y = !best in
          (* [Float.compare], with the ordered cases inline *)
          let c =
            if x < y then -1
            else if x > y then 1
            else if x = y then 0
            else Float.compare x y
          in
          if c < 0 then begin
            best := x;
            at := r + q;
            tied := 1
          end
          else if c = 0 then incr tied
        done;
        m.(l) <- !best;
        first.(l) <- !at;
        ties.(l) <- !tied
      in
      iter_cross ~lo:0 ~hi:nl nr (fun lbuf rbuf n ->
          let a =
            match eval lbuf rbuf n with
            | Vector.VFloat a -> a
            | Vector.VConst (Value.Float x) -> Array.make n x
            | _ -> assert false
          in
          segments a lbuf rbuf n ~reset ~scan);
      Column.make (Column.Floats m)
    | _ ->
      let m = Array.make nl 0 in
      let reset (a : int array) l k = m.(l) <- a.(k) in
      let scan (a : int array) l ~r start stop =
        for q = start to stop - 1 do
          let c = Int.compare a.(q) m.(l) in
          if c < 0 then begin
            m.(l) <- a.(q);
            first.(l) <- r + q;
            ties.(l) <- 1
          end
          else if c = 0 then ties.(l) <- ties.(l) + 1
        done
      in
      iter_cross ~lo:0 ~hi:nl nr (fun lbuf rbuf n ->
          let a =
            match eval lbuf rbuf n with
            | Vector.VInt a -> a
            | Vector.VConst (Value.Int x) -> Array.make n x
            | _ -> assert false
          in
          segments a lbuf rbuf n ~reset ~scan);
      Column.make (Column.Ints m)
  in
  (* each group's first row, and the row holding its MIN *)
  let reps = Array.make ngroups (-1) and winner = Array.make ngroups 0 in
  if nr > 0 then
    for l = 0 to nl - 1 do
      let g = gcode.(l) in
      if reps.(g) < 0 then begin
        reps.(g) <- l;
        winner.(g) <- l
      end
      else if Column.compare_at lmin l winner.(g) < 0 then winner.(g) <- l
    done;
  let groups =
    let kc = List.nth (Schema.columns ls) (Schema.index_of ls key) in
    Table.of_columns
      (Schema.make [ kc; { Schema.name = min_as; ty } ])
      [| Column.gather kcol
           (match kidx with None -> reps | Some ix -> Table.compose ix reps);
         Column.gather lmin winner |]
  in
  (* the survivors, newest first — the reverse of pair order — each
     with its own value (-0.0 equals 0.0 but prints apart) *)
  let kept = ref [] and counts = Array.make ngroups 0 in
  let keep l r v =
    kept := (l, r, v) :: !kept;
    counts.(gcode.(l)) <- counts.(gcode.(l)) + 1
  in
  if nr > 0 then
    for l = 0 to nl - 1 do
      if Column.compare_at lmin l winner.(gcode.(l)) = 0 then
        if ties.(l) = 1 then keep l first.(l) (Column.get lmin l)
        else
          let m = Column.get lmin l in
          iter_cross ~lo:l ~hi:(l + 1) nr (fun lbuf rbuf n ->
              let c = eval lbuf rbuf n in
              for k = 0 to n - 1 do
                let v =
                  match c with
                  | Vector.VFloat a -> Value.Float a.(k)
                  | Vector.VInt a -> Value.Int a.(k)
                  | Vector.VConst v -> v
                  | _ -> assert false
                in
                if Value.compare v m = 0 then keep l rbuf.(k) v
              done)
    done;
  (* the JOIN's order: groups (the rows of [best]) in turn, each one's
     pairs newest first — a stable counting sort by group *)
  let next = Array.make ngroups 0 in
  for g = 1 to ngroups - 1 do
    next.(g) <- next.(g - 1) + counts.(g - 1)
  done;
  let placed = Array.make (List.length !kept) (0, 0, Value.Int 0) in
  let group_of = Array.make (Array.length placed) 0 in
  List.iter
    (fun ((l, _, _) as s) ->
       let g = gcode.(l) in
       placed.(next.(g)) <- s;
       group_of.(next.(g)) <- g;
       next.(g) <- next.(g) + 1)
    !kept;
  let values = Column.of_values ty (Array.map (fun (_, _, v) -> v) placed) in
  let d_view =
    let v =
      Table.concat_views
        (Table.reindex lv (Array.map (fun (l, _, _) -> l) placed))
        (Table.reindex rv (Array.map (fun (_, r, _) -> r) placed))
    in
    if Schema.mem cross_schema target then begin
      let vcols = Array.copy v.vcols in
      vcols.(Schema.index_of cross_schema target) <- (values, -1);
      { v with vcols }
    end
    else { v with vcols = Array.append v.vcols [| (values, -1) |] }
  in
  (* every row of each side is in some pair, unless there are none *)
  let cross_bytes =
    Array.append (spread_bytes lv ~pairs) (spread_bytes rv ~pairs)
  in
  let map_bytes =
    if Schema.mem cross_schema target then begin
      let b = Array.copy cross_bytes in
      b.(Schema.index_of cross_schema target) <- 8 * pairs;
      b
    end
    else Array.append cross_bytes [| 8 * pairs |]
  in
  { groups; cross_bytes; map_bytes;
    selected = { d_schema; d_view; group_of; pairs } }

let try_argmin left right ~target ~expr ~key ~min_as ~min_column =
  if not (Column.enabled ()) then argmin_refused "disabled"
  else begin
    let ls = Table.schema left in
    (* same schema (and same clash error) as the CROSS *)
    let cross_schema = Schema.concat ls (Table.schema right) in
    match Vector.compile cross_schema expr with
    | None -> argmin_refused "not_vectorizable"
    | Some prog ->
      let ty = Vector.ty prog in
      let d_schema =
        Schema.with_column cross_schema { Schema.name = target; ty }
      in
      if ty <> Value.Tint && ty <> Value.Tfloat then
        argmin_refused "non_numeric_min"
      else if key = target || not (Schema.mem ls key) then
        (* the groups are the left rows' keys *)
        argmin_refused "key_not_left"
      else if Schema.column_type ls key = Value.Tfloat then
        argmin_refused "float_key"
      else if Schema.mem d_schema min_column then
        (* the SELECT would compare with a column of [d], not [best] *)
        argmin_refused "shadowed_min"
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
    join_bytes = Array.append a.map_bytes (spread_bytes bv ~pairs:sel.pairs) }
