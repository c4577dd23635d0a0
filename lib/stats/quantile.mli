(** Order statistics and summary statistics over float samples. *)

val mean : float array -> float
(** @raise Invalid_argument on empty input (as do all functions
    below). *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 for singletons. *)

val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in \[0,1\], linear interpolation between
    order statistics (type-7, the R/NumPy default), ordered as
    [Array.sort compare] orders floats.  Input need not be sorted and
    is not modified: the two order statistics are selected from a copy
    in expected linear time. *)

val median : float array -> float

type boxplot = { lo : float; q1 : float; med : float; q3 : float; hi : float }

val boxplot : float array -> boxplot
(** Five-number summary: min, quartiles, max — the Fig. 9a rendering. *)
