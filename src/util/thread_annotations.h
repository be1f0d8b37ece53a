#ifndef DFS_UTIL_THREAD_ANNOTATIONS_H_
#define DFS_UTIL_THREAD_ANNOTATIONS_H_

/// Clang thread-safety analysis attributes (DESIGN.md §2f).
///
/// These macros turn the repo's lock-discipline comments ("guarded by
/// mu_", "caller holds jobs_mu_") into declarations the compiler checks:
/// building with `-DDFS_ANALYZE=ON` under Clang promotes every violation
/// — a guarded member touched without its mutex, a *Locked helper called
/// unlocked, a lock released twice — to a compile error
/// (-Werror=thread-safety). Under GCC, and under Clang without the
/// warning enabled, every macro expands to nothing, so annotated code is
/// byte-identical to unannotated code at runtime.
///
/// Conventions:
///   * Every mutex-protected member carries DFS_GUARDED_BY(mu). Members
///     that are immutable after construction, or confined to one thread
///     by a documented handoff, carry a comment instead — never a fake
///     guard.
///   * Private helpers that assume a lock is held are named *Locked and
///     annotated DFS_REQUIRES(mu).
///   * Deliberate exemptions use DFS_NO_THREAD_SAFETY_ANALYSIS with an
///     inline justification; blanket suppressions are banned (the lint
///     fixture tree demonstrates each rule firing).
///
/// Only `util::Mutex` / `util::MutexLock` / `util::CondVar` (util/mutex.h)
/// may use the capability attributes directly; everything else annotates
/// data and functions. tools/dfs_analyze.py enforces that split.

#if defined(__clang__) && defined(__has_attribute)
#define DFS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DFS_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Declares a type to be a lockable capability ("mutex").
#define DFS_CAPABILITY(x) DFS_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define DFS_SCOPED_CAPABILITY DFS_THREAD_ANNOTATION_(scoped_lockable)

/// Data members: may only be read/written while holding `x`.
#define DFS_GUARDED_BY(x) DFS_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer members: the pointee (not the pointer) is protected by `x`.
#define DFS_PT_GUARDED_BY(x) DFS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Functions: the caller must hold the listed capabilities on entry (and
/// still holds them on exit).
#define DFS_REQUIRES(...) \
  DFS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Functions: acquire the listed capabilities; the caller must not
/// already hold them.
#define DFS_ACQUIRE(...) \
  DFS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Functions: release the listed capabilities, which the caller holds.
#define DFS_RELEASE(...) \
  DFS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Functions: acquire the capability iff the return value equals the
/// first argument (e.g. DFS_TRY_ACQUIRE(true) on a bool TryLock()).
#define DFS_TRY_ACQUIRE(...) \
  DFS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Functions: the caller must NOT hold the listed capabilities (guards
/// against self-deadlock on non-reentrant mutexes).
#define DFS_EXCLUDES(...) DFS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Functions returning a reference to the mutex protecting some state.
#define DFS_RETURN_CAPABILITY(x) DFS_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry an inline justification comment; tools/dfs_analyze.py counts naked
/// uses as violations of the exemption policy.
#define DFS_NO_THREAD_SAFETY_ANALYSIS \
  DFS_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Hot-path allocation contract (DESIGN.md §2e/§2k, tools/dfs_analyze.py)

/// Marks a function as a §2e warm-path root: once the per-engine scratch
/// is warm, no allocating construct (operator new, make_unique/shared,
/// container growth, string building) may be reachable from it through
/// any transitive callee. `tools/dfs_analyze.py` (hot-alloc pass) walks
/// the call graph from every DFS_HOT function and reports reachable
/// allocation sites; the runtime counting-operator-new test in
/// engine_golden_test is the dynamic backstop for what the static walk
/// cannot see (indirect calls, std internals).
#define DFS_HOT DFS_THREAD_ANNOTATION_(annotate("dfs_hot"))

/// Marks a callee that allocates BY DESIGN and terminates the DFS_HOT
/// walk (e.g. TrainModel constructs the model; §2e covers gathers and
/// predictions, not model construction). Every use must carry an inline
/// justification comment. Line-level exemptions inside hot code use
/// `// DFS_ALLOC_OK: <reason>` instead (amortized growth of reusable
/// capacity that is warm after the first evaluation).
#define DFS_ALLOC_BOUNDARY DFS_THREAD_ANNOTATION_(annotate("dfs_alloc_boundary"))

#endif  // DFS_UTIL_THREAD_ANNOTATIONS_H_
