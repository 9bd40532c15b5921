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

(* Evaluates [e] over the [n] rows of a view: each column reads
   through its group's index. *)
let eval_view schema (v : Table.view) ~n e =
  Vector.eval schema (Array.map fst v.vcols) ~len:n
    ~sel:(fun i ->
        match v.vcols.(i) with
        | _, -1 -> Vector.Dense
        | _, g -> Vector.Sparse v.idx.(g))
    e

(* the rows of [v] that [pred] keeps. [col ⊕ const] over a row-aligned
   int column filters it in place; the predicate has type-checked, so
   its column exists *)
let select_indices schema (v : Table.view) ~n pred =
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
      (Vector.to_mask ~length:n (eval_view schema v ~n pred))

let try_select t pred =
  if not (Column.enabled ()) then fallback "disabled"
  else begin
    let schema = Table.schema t in
    if not (Vector.vectorizable schema pred) then fallback "not_vectorizable"
    else if Expr.infer schema pred <> Value.Tbool then
      (* row path raises per live row; let it *)
      fallback "non_bool_predicate"
    else begin
      mark "select";
      let n = Table.row_count t in
      if n = 0 then Some t
      else begin
        let v = Table.parts t in
        let keep = select_indices schema v ~n pred in
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
    if not (Vector.vectorizable schema expr) then fallback "not_vectorizable"
    else begin
      mark "map";
      let ty = Expr.infer schema expr in
      let out_schema = Schema.with_column schema { Schema.name = target; ty } in
      let n = Table.row_count t in
      let v = Table.parts t in
      let new_col =
        if n = 0 then empty_column ty
        else Vector.to_column ~length:n (eval_view schema v ~n expr)
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

(* An equi-join's matches, before any pair is emitted. One side is the
   build side: its keys are dense-coded once and its rows bucketed by
   code, newest first (a CSR layout:
   [brows.(bstart.(c) .. bstart.(c+1) - 1)] are the build rows with
   code c). The other side probes: row q probes the bucket of
   [pcode.(via q)], -1 for none, where [via] is its key's view index
   or the identity, so a probe side read through a view is coded once
   per base row. *)
type matches = {
  out_schema : Schema.t;
  lv : Table.view;
  rv : Table.view;  (** the right side without its key column *)
  build_left : bool;
  nprobe : int;
  pcode : int array;  (** per row of the probe key's base column *)
  pvia : int array option;
  bstart : int array;
  brows : int array;
  pairs : int;
}

let code_at via codes i =
  match via with None -> codes.(i) | Some ix -> codes.(ix.(i))

(* The matches of [left ⋈ right], built on the left side or the right
   one, or the reason the columnar path refuses. [refuse] vetoes on the
   output schema, before any key is coded. *)
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
        for q = 0 to nprobe - 1 do
          let c = code_at pvia pcode q in
          if c >= 0 then pairs := !pairs + bstart.(c + 1) - bstart.(c)
        done;
        let rv =
          { rv with
            vcols =
              Array.of_list
                (List.filteri (fun j _ -> j <> ri) (Array.to_list rv.vcols)) }
        in
        Ok
          { out_schema; lv; rv; build_left; nprobe; pcode; pvia; bstart;
            brows; pairs = !pairs }
  end

(* The pairs of [m] handed to [flush lidx ridx n] in runs of [block]
   pairs (the last may be shorter), through two buffers reused from run
   to run. A left build side is probed by the right rows in order, so
   the pairs come in the serial kernel's order — right rows ascending,
   each right row's left rows newest first, its [Hashtbl.find_all]
   order — and with [block = m.pairs] the two buffers are its output.
   A right build side is probed by the left rows, newest first. *)
let iter_pairs m ~block flush =
  let lbuf = Array.make block 0 and rbuf = Array.make block 0 in
  let k = ref 0 in
  for s = 0 to m.nprobe - 1 do
    let q = if m.build_left then s else m.nprobe - 1 - s in
    let c = code_at m.pvia m.pcode q in
    if c >= 0 then
      for p = m.bstart.(c) to m.bstart.(c + 1) - 1 do
        let b = m.brows.(p) in
        if m.build_left then begin
          lbuf.(!k) <- b;
          rbuf.(!k) <- q
        end
        else begin
          lbuf.(!k) <- q;
          rbuf.(!k) <- b
        end;
        incr k;
        if !k = block then begin
          flush lbuf rbuf block;
          k := 0
        end
      done
  done;
  if !k > 0 then flush lbuf rbuf !k

(* a view: each input's groups composed with its pair index *)
let pair_view m ~rows lidx ridx =
  Table.of_view m.out_schema ~rows
    (Table.concat_views (Table.reindex m.lv lidx) (Table.reindex m.rv ridx))

(* The JOIN's {!Table.column_bytes} from counts, without its pairs: a
   column of the JOIN's output has [m.pairs] rows, and its values are
   those of the rows on its side whose key matches at least once. A
   probe row matches when its bucket is not empty, and a build row when
   some probe row reaches its bucket. *)
let join_bytes m =
  let groups = Array.length m.bstart - 1 in
  let hit = Array.make groups false in
  for q = 0 to m.nprobe - 1 do
    let c = code_at m.pvia m.pcode q in
    if c >= 0 && m.bstart.(c + 1) > m.bstart.(c) then hit.(c) <- true
  done;
  (* the matching rows are listed only for a side with a string column:
     every other column costs a fixed width per pair, so k-means, whose
     120,000-row probe side holds no string, lists none *)
  let probed =
    lazy
      (let rows = Array.make m.nprobe 0 and n = ref 0 in
       for q = 0 to m.nprobe - 1 do
         let c = code_at m.pvia m.pcode q in
         if c >= 0 && hit.(c) then begin
           rows.(!n) <- q;
           incr n
         end
       done;
       Array.sub rows 0 !n)
  and built =
    lazy
      (let rows = Array.make (Array.length m.brows) 0 and n = ref 0 in
       for c = 0 to groups - 1 do
         if hit.(c) then
           for p = m.bstart.(c) to m.bstart.(c + 1) - 1 do
             rows.(!n) <- m.brows.(p);
             incr n
           done
       done;
       Array.sub rows 0 !n)
  in
  let bytes (v : Table.view) rows =
    Array.map
      (fun (c, g) ->
         if Column.ty c <> Value.Tstring then
           Column.encoded_bytes ~rows:m.pairs c
         else
           let rows = Lazy.force rows in
           let idx = if g < 0 then rows else Table.compose v.idx.(g) rows in
           Column.encoded_bytes ~idx ~rows:m.pairs c)
      v.vcols
  in
  let lrows, rrows =
    if m.build_left then (built, probed) else (probed, built)
  in
  Array.append (bytes m.lv lrows) (bytes m.rv rrows)

(* A plain JOIN's output is every pair, so it is built on the left and
   emitted in order into two exactly sized index arrays. *)
let try_join left right ~left_key ~right_key =
  match join_matches ~build_left:true left right ~left_key ~right_key with
  | Error reason -> fallback reason
  | Ok m ->
    mark "join";
    let out = ref ([||], [||]) in
    iter_pairs m ~block:m.pairs (fun lidx ridx _ -> out := (lidx, ridx));
    let lidx, ridx = !out in
    Some (pair_view m ~rows:m.pairs lidx ridx)

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

(* The selection of each column of [lv]'s columns then [rv]'s, over a
   block of pairs: [lbuf.(k)] and [rbuf.(k)] are pair k's rows. Each
   column reads its base through its group's index composed with the
   block's rows, composed once per group and only for the columns an
   expression names. *)
let pair_sel (lv : Table.view) (rv : Table.view) lbuf rbuf =
  let through (v : Table.view) buf =
    let memo = Array.make (Array.length v.idx) None in
    fun g ->
      if g < 0 then Vector.Sparse buf
      else
        match memo.(g) with
        | Some ix -> Vector.Sparse ix
        | None ->
          let ix = Table.compose v.idx.(g) buf in
          memo.(g) <- Some ix;
          Vector.Sparse ix
  in
  let left_sel = through lv lbuf and right_sel = through rv rbuf in
  let nleft = Array.length lv.vcols in
  fun i ->
    if i < nleft then left_sel (snd lv.vcols.(i))
    else right_sel (snd rv.vcols.(i - nleft))

(* The smaller side is the build side, so no array is sized by the
   larger input (k-means' 120,000-row [d] probes 1,200 buckets), and
   only the survivors are placed. *)
let try_join_select left right ~left_key ~right_key ~pred =
  let refuse schema =
    if not (Vector.vectorizable schema pred) then Some "not_vectorizable"
    else if Expr.infer schema pred <> Value.Tbool then
      Some "non_bool_predicate"
    else None
  in
  let build_left = Table.row_count left <= Table.row_count right in
  match join_matches ~refuse ~build_left left right ~left_key ~right_key with
  | Error reason -> refused reason
  | Ok m ->
    let bases =
      Array.append (Array.map fst m.lv.vcols) (Array.map fst m.rv.vcols)
    in
    mark "join_select";
    let counts = Array.make (Table.row_count right) 0 in
    let kept = ref [] in
    iter_pairs m ~block:pair_block (fun lbuf rbuf n ->
        let lb = if n = pair_block then lbuf else Array.sub lbuf 0 n
        and rb = if n = pair_block then rbuf else Array.sub rbuf 0 n in
        let mask =
          Vector.to_mask ~length:n
            (Vector.eval m.out_schema bases ~len:n
               ~sel:(pair_sel m.lv m.rv lb rb)
               pred)
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
      { table = pair_view m ~rows:(Array.length lidx) lidx ridx;
        pairs = m.pairs;
        join_bytes = join_bytes m }

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
  | [] -> (Array.make n 0, min n 1)  (* keyless: one group of every row *)
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
      sums.(g) <-
        (if reps.(g) = r then a.(r) else Aggregate.add_float sums.(g) a.(r))
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
      sums.(g) <- Aggregate.add_float sums.(g) a.(r)
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
  if not (Column.enabled ()) then fallback "disabled"
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
    (* float keys (row-path NaN semantics), repeated keys (a duplicate
       output column) and SUM/AVG over non-numeric inputs (a schema
       error) stay on rows *)
    if List.length key_cols <> List.length kis then fallback "float_key"
    else if List.length (List.sort_uniq Int.compare kis) <> List.length kis
    then fallback "repeated_key"
    else if
      not (List.for_all2 (fun (a : Aggregate.t) -> summable a.fn) aggs srcs)
    then fallback "non_numeric_agg"
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
      if keys <> [] || (n > 0 && aggs <> []) then
        Some
          (Table.of_columns out_schema (Array.of_list (out_keys @ out_aggs)))
      else
        (* a keyless GROUP BY yields one row even with no aggregate, and
           over an empty input the row kernel's initial states *)
        Some
          (Table.create_unchecked out_schema
             [| Array.of_list
                  (List.map
                     (fun (a : Aggregate.t) ->
                        Aggregate.finish a.fn (Aggregate.init a.fn))
                     aggs) |])
    end
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
   many whole left rows as fit, or one left row's pairs in runs. *)
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
        f (Array.sub lbuf 0 n) (Array.init n (fun k -> !j + k)) n;
        j := !j + n
      done
    end
    else if take = rows then f lbuf rbuf len
    else
      f (Array.sub lbuf 0 (take * nr)) (Array.sub rbuf 0 (take * nr))
        (take * nr);
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
let argmin_run left right ~cross_schema ~d_schema ~target ~ty ~expr ~key
    ~min_as =
  mark "argmin";
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
  let eval lbuf rbuf n =
    Vector.to_column ~length:n
      (Vector.eval cross_schema bases ~len:n ~sel:(pair_sel lv rv lbuf rbuf)
         expr)
  in
  let first = Array.make nl 0 and ties = Array.make nl 0 in
  (* [segments lbuf rbuf n ~reset scan] calls [scan l ~r start stop] on
     each left row [l]'s run of a block, where slot [q] holds the pair
     of right row [r + q]. When the run holds the row's first pair,
     [reset l k] first makes that pair's value the row's MIN, and the
     scan starts after it. *)
  let segments lbuf rbuf n ~reset scan =
    let k = ref 0 in
    while !k < n do
      let l = lbuf.(!k) and r0 = rbuf.(!k) in
      let stop = min n (!k + nr - r0) in
      let start =
        if r0 = 0 then begin
          reset l !k;
          first.(l) <- 0;
          ties.(l) <- 1;
          !k + 1
        end
        else !k
      in
      scan l ~r:(r0 - !k) start stop;
      k := stop
    done
  in
  let lmin =
    match ty with
    | Value.Tfloat ->
      let m = Array.make nl 0. in
      iter_cross ~lo:0 ~hi:nl nr (fun lbuf rbuf n ->
          match (eval lbuf rbuf n).Column.data with
          | Column.Floats a ->
            segments lbuf rbuf n ~reset:(fun l k -> m.(l) <- a.(k))
              (fun l ~r start stop ->
                 let best = ref m.(l) and at = ref first.(l)
                 and tied = ref ties.(l) in
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
                 ties.(l) <- !tied)
          | _ -> assert false);
      Column.make (Column.Floats m)
    | _ ->
      let m = Array.make nl 0 in
      iter_cross ~lo:0 ~hi:nl nr (fun lbuf rbuf n ->
          match (eval lbuf rbuf n).Column.data with
          | Column.Ints a ->
            segments lbuf rbuf n ~reset:(fun l k -> m.(l) <- a.(k))
              (fun l ~r start stop ->
                 for q = start to stop - 1 do
                   let c = Int.compare a.(q) m.(l) in
                   if c < 0 then begin
                     m.(l) <- a.(q);
                     first.(l) <- r + q;
                     ties.(l) <- 1
                   end
                   else if c = 0 then ties.(l) <- ties.(l) + 1
                 done)
          | _ -> assert false);
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
                let v = Column.get c k in
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
    if not (Vector.vectorizable cross_schema expr) then
      argmin_refused "not_vectorizable"
    else begin
      let ty = Expr.infer cross_schema expr in
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
      else Some (argmin_run left right ~cross_schema ~d_schema ~target ~ty
                   ~expr ~key ~min_as)
    end
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
