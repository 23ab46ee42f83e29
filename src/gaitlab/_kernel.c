/* The compiled loops of the gaitlab chain and the recycler of their stages'
 * large outputs, as one CPython extension module, gaitlab._kernel_c.
 *
 * `madgwick_loop` is the loop of gaitlab.orientation.madgwick_batch,
 * `minima_loop` the loop of gaitlab.events.MinimaDetector.feed_derivative,
 * `segment_event` the rule of gaitlab.events.StepSegmenter, run over a list
 * of events by `segment`, and `boxcar_loop` the decimating boxcar of
 * gaitlab.signal.smoothed_block; `offset` and `rotate` are the row loops of
 * gaitlab.signal.apply_offsets and gaitlab.orientation.remap_mounting, and
 * `medians` the standing-window selection of gaitlab.signal.compute_offsets.
 * Each entry point, `loop`, `minima`, `segment`, `boxcar`, `offset`,
 * `rotate` and `medians`, takes the same arguments and returns the same
 * values as its Python twin in gaitlab/_kernel.py, which builds and loads
 * this module, named by a digest of this source, the flags, the
 * interpreter and the compiler; its docstring says how the two give the
 * same bits. The entry points pass the loops the buffers without copying
 * them; building the module needs the interpreter's headers (Python.h).
 *
 * `medians` reads a standing window of n samples by c channels in place
 * and, per channel, checks every sample finite, selects the two middle
 * order statistics with a quickselect (Hoare's FIND) on a scratch copy,
 * and selects the middle pair of the absolute deviations from their
 * median: the median and the MAD-based spread of the stillness check, in
 * one call per sensor where numpy partitioned twice per channel.
 *
 * `segment` takes the segmenter's state as plain numbers and its events as
 * the tuples they are, and reads each event's paired angle from the four
 * angle series' buffers in place, live one event a call or a whole
 * recording in one call. It allocates nothing but the lists and tuples it
 * returns, and calls no function of its caller's: the segmenter's callable
 * sampler runs on the Python loop alone.
 *
 * `madgwick_loop` runs the hip angle's atan2 ANGLE_LAG samples behind the
 * quaternion recurrence, in the same loop: the CPU overlaps the atan2 of an
 * earlier sample with the recurrence's latency-bound chain (software
 * pipelining; Lam, PLDI 1988). Each atan2 reads the two doubles the
 * recurrence stored and nothing else, so when it runs cannot change a bit.
 *
 * `block(nbytes)` returns a writable buffer of exactly nbytes, which
 * gaitlab._kernel.empty wraps as the float64 output of a whole-recording
 * stage. When the last reference to a block goes, its memory is kept on a
 * small free list rather than handed back to malloc, and the next block of
 * about its size takes it: a recording analysed after another writes into
 * pages already mapped instead of faulting fresh ones in (a slab cache;
 * Bonwick, USENIX Summer 1994). The list is touched only with the GIL held.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdarg.h>
#include <stdlib.h>
#include <string.h>

/* Samples the hip angle's atan2 runs behind the recurrence: den[] is
 * 512 bytes of stack, and out[i - ANGLE_LAG] is still in cache when the
 * loop reads it back. From 16 to 256 the lag made no measurable difference
 * to a 15000-sample call. */
#define ANGLE_LAG 64

/* Python's math.pi / 180.0 and 180.0 / math.pi: M_PI is the same double as
 * math.pi, and the compiler folds each divide with IEEE rounding. */
#define DEG (M_PI / 180.0)
#define DEG_PER_RAD (180.0 / M_PI)

/* `q` is read and written as (w, x, y, z); accel (g) and gyro (deg/s) are
 * C-contiguous (n, 3); `out` receives the hip angle in degrees after each
 * sample. Returns the accel-rejected flag after the last sample, which is
 * the incoming flag when n is 0.
 *
 * Per sample it multiplies the rate by DEG and the angle by DEG_PER_RAD,
 * the multiplies numpy's `g * DEG` and `np.degrees` do. It is arranged so
 * that little sits on its per-sample dependency chain, the quaternion
 * recurrence. The proportional gain beta / gradient_ref is divided once per
 * call and the per-sample beta / ns is taken only in a branch when the
 * gradient norm exceeds gradient_ref: each is the Python loop's divide on
 * the same operands, and a predicted branch lets the CPU run ahead without
 * waiting on the sqrt and the divide. The hip angle's atan2, which reads
 * the quaternion but feeds nothing back, runs ANGLE_LAG samples behind the
 * recurrence on the numerator and denominator stored as they were
 * computed: sample i stores its numerator in out[i] and its denominator in
 * the ring den[i % ANGLE_LAG], whose slot held sample i - ANGLE_LAG's until
 * that sample's angle was taken, and a tail loop takes the last angles.
 */
static int madgwick_loop(double *q, const double *accel, const double *gyro, long n,
                         double dt, double beta, double gradient_ref,
                         int accel_rejected, double *out)
{
    double w = q[0], x = q[1], y = q[2], z = q[3];
    double k_ref = beta / gradient_ref;
    double den[ANGLE_LAG];
    for (long i = 0; i < n; i++) {
        double ax = accel[3 * i], ay = accel[3 * i + 1], az = accel[3 * i + 2];
        double gx = gyro[3 * i] * DEG, gy = gyro[3 * i + 1] * DEG;
        double gz = gyro[3 * i + 2] * DEG;
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        if (!(isfinite(gx) && isfinite(gy) && isfinite(gz)))
            gx = gy = gz = 0.0;
        double an = sqrt(ax * ax + ay * ay + az * az);
        accel_rejected = !(an > 0.0 && isfinite(ax) && isfinite(ay) && isfinite(az));
        if (!accel_rejected) {
            double axn = ax / an, ayn = ay / an, azn = az / an;
            double _2w = 2.0 * w, _2x = 2.0 * x, _2y = 2.0 * y, _2z = 2.0 * z;
            /* Objective: predicted gravity in the sensor frame minus measurement. */
            double f1 = _2x * z - _2w * y - axn;
            double f2 = _2w * x + _2y * z - ayn;
            double f3 = 1.0 - _2x * x - _2y * y - azn;
            double s0 = -_2y * f1 + _2x * f2;
            double s1 = _2z * f1 + _2w * f2 - 2.0 * _2x * f3;
            double s2 = -_2w * f1 + _2z * f2 - 2.0 * _2y * f3;
            double s3 = _2x * f1 + _2y * f2;
            double ns = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3);
            if (ns > 0.0) {
                double k = k_ref;
                if (ns > gradient_ref)
                    k = beta / ns;
                c0 = k * s0;
                c1 = k * s1;
                c2 = k * s2;
                c3 = k * s3;
            }
        }

        double qdw = 0.5 * (-x * gx - y * gy - z * gz) - c0;
        double qdx = 0.5 * (w * gx + y * gz - z * gy) - c1;
        double qdy = 0.5 * (w * gy - x * gz + z * gx) - c2;
        double qdz = 0.5 * (w * gz + x * gy - y * gx) - c3;

        w += qdw * dt;
        x += qdx * dt;
        y += qdy * dt;
        z += qdz * dt;
        double inv = 1.0 / sqrt(w * w + x * x + y * y + z * z);
        w *= inv;
        x *= inv;
        y *= inv;
        z *= inv;
        out[i] = 2.0 * (x * z - w * y);
        double d = 1.0 - 2.0 * (x * x + y * y);
        long slot = i % ANGLE_LAG;
        if (i >= ANGLE_LAG)
            out[i - ANGLE_LAG] = atan2(out[i - ANGLE_LAG], den[slot]) * DEG_PER_RAD;
        den[slot] = d;
    }
    for (long j = n > ANGLE_LAG ? n - ANGLE_LAG : 0; j < n; j++)
        out[j] = atan2(out[j], den[j % ANGLE_LAG]) * DEG_PER_RAD;
    q[0] = w;
    q[1] = x;
    q[2] = y;
    q[3] = z;
    return accel_rejected;
}

/* loop(accel, gyro, out, dt, w, x, y, z, accel_rejected, beta, gradient_ref)
 *
 * accel (g) and gyro (deg/s) are read-only buffers of 3n doubles and out a
 * writable buffer of n doubles for the hip angles (deg), all C-contiguous;
 * the caller guarantees the double format, this function checks the
 * lengths. Returns the final (w, x, y, z, accel_rejected).
 */
static PyObject *loop(PyObject *self, PyObject *args)
{
    Py_buffer accel, gyro, out;
    double q[4], dt, beta, gradient_ref;
    int accel_rejected;
    PyObject *result = NULL;
    (void)self;

    if (!PyArg_ParseTuple(args, "y*y*w*dddddpdd:loop", &accel, &gyro, &out, &dt,
                          &q[0], &q[1], &q[2], &q[3], &accel_rejected, &beta,
                          &gradient_ref))
        return NULL;
    if (out.len % sizeof(double) != 0 || accel.len != gyro.len
        || accel.len != 3 * out.len) {
        PyErr_Format(PyExc_ValueError,
                     "loop needs 3n doubles of accel and of gyro for n of out, "
                     "got %zd, %zd and %zd bytes", accel.len, gyro.len, out.len);
    }
    else {
        accel_rejected = madgwick_loop(q, accel.buf, gyro.buf,
                                       (long)(out.len / (Py_ssize_t)sizeof(double)), dt,
                                       beta, gradient_ref, accel_rejected, out.buf);
        result = Py_BuildValue("(ddddO)", q[0], q[1], q[2], q[3],
                               accel_rejected ? Py_True : Py_False);
    }
    PyBuffer_Release(&accel);
    PyBuffer_Release(&gyro);
    PyBuffer_Release(&out);
    return result;
}

/* The minima detector's state between derivatives, as on MinimaDetector. */
typedef struct {
    Py_ssize_t i;         /* index of the next derivative */
    double d_prev;        /* read only once i > 0 */
    Py_ssize_t pending;   /* the trough awaiting confirmation, or -1 */
    double run_max;       /* starts at -inf */
    double last_accept_t; /* starts at -inf: the first trough clears refractory */
} minima_state;

/* Processes derivatives d[0..m) against the series s[0..n), appending each
 * confirmed minimum to `events` as (index, t, value). Returns 0 after all m,
 * 1 when a derivative outruns the series (the state then includes that
 * derivative's index and value, as the Python loop leaves it), or -1 with a
 * Python error set when an append fails. The state must index inside s:
 * i >= 0 and -1 <= pending < n.
 */
static int minima_loop(minima_state *st, const double *s, Py_ssize_t n, const double *d,
                       Py_ssize_t m, double prominence, double refractory, double t0,
                       double rate, PyObject *events)
{
    for (Py_ssize_t k = 0; k < m; k++) {
        Py_ssize_t i = st->i;
        double before = st->d_prev;
        st->i = i + 1;
        st->d_prev = d[k];
        if (i == 0)
            continue;
        if (i >= n)
            return 1;
        if (st->pending < 0) {
            if (s[i - 1] > st->run_max)
                st->run_max = s[i - 1];
            if (d[k] > 0.0 && before <= 0.0) {
                Py_ssize_t j = s[i - 1] <= s[i] ? i - 1 : i;
                double t_j = t0 + (double)j / rate;
                if (t_j - st->last_accept_t >= refractory && st->run_max - s[j] >= prominence)
                    st->pending = j;
            }
        }
        else {
            Py_ssize_t j = st->pending;
            if (s[i] < s[j])
                st->pending = i;
            else if (s[i] - s[j] >= prominence) {
                st->last_accept_t = t0 + (double)j / rate;
                PyObject *event = Py_BuildValue("(ndd)", j, st->last_accept_t, s[j]);
                if (event == NULL)
                    return -1;
                int failed = PyList_Append(events, event);
                Py_DECREF(event);
                if (failed)
                    return -1;
                st->pending = -1;
                st->run_max = s[i];
            }
        }
    }
    return 0;
}

/* minima(values, derivs, i, d_prev, pending, run_max, last_accept_t,
 *        prominence, refractory, t0, rate)
 *
 * values and derivs are read-only C-contiguous buffers of doubles; the
 * caller guarantees the double format, this function checks the lengths and
 * that the state indexes inside values. The state is the detector's, in
 * numbers (see minima_state). Returns (i, d_prev, pending, run_max,
 * last_accept_t, events, outrun): the state after the derivatives
 * processed, the confirmed minima as a list of (index, t, value), and
 * whether the last derivative processed outran the series.
 */
static PyObject *minima(PyObject *self, PyObject *args)
{
    Py_buffer values, derivs;
    PyObject *events = NULL, *result = NULL;
    double prominence, refractory, t0, rate;
    minima_state st;
    (void)self;

    if (!PyArg_ParseTuple(args, "y*y*ndndddddd:minima", &values, &derivs, &st.i,
                          &st.d_prev, &st.pending, &st.run_max, &st.last_accept_t,
                          &prominence, &refractory, &t0, &rate))
        return NULL;
    Py_ssize_t n = values.len / (Py_ssize_t)sizeof(double);
    if (values.len % sizeof(double) != 0 || derivs.len % sizeof(double) != 0) {
        PyErr_Format(PyExc_ValueError,
                     "minima needs whole doubles, got %zd and %zd bytes", values.len,
                     derivs.len);
        goto done;
    }
    if (st.i < 0 || st.pending < -1 || st.pending >= n) {
        PyErr_Format(PyExc_ValueError,
                     "minima state indexes outside the series of %zd samples", n);
        goto done;
    }
    events = PyList_New(0);
    if (events == NULL)
        goto done;
    int outrun = minima_loop(&st, values.buf, n, derivs.buf,
                             derivs.len / (Py_ssize_t)sizeof(double), prominence, refractory,
                             t0, rate, events);
    if (outrun < 0)
        goto done;
    result = Py_BuildValue("(ndnddOO)", st.i, st.d_prev, st.pending, st.run_max,
                           st.last_accept_t, events, outrun ? Py_True : Py_False);
done:
    Py_XDECREF(events);
    PyBuffer_Release(&values);
    PyBuffer_Release(&derivs);
    return result;
}

/* The step segmenter's state between events, as StepSegmenter holds it: a
 * front event pending (its side, time and paired angles), the front side
 * of the last completed step and the steps completed. A side is 0 for L
 * and 1 for R; last_front is -1 before the first step and after a resync. */
typedef struct {
    int pending;
    int side;
    double t, beta_f, alpha_f;
    int last_front;
    Py_ssize_t count;
} segment_state;

/* The diagnostics' codes, each the index of its message in the message
 * table of gaitlab.events (_DIAGNOSTICS), which formats them. */
enum { DIAG_TIMEOUT, DIAG_KNEE_FIRST, DIAG_SAME_SIDE, DIAG_NOT_AFTER, DIAG_NOT_ALTERNATE };

/* The four series in the sampler's order, index 2 * side + (1 for a knee),
 * and the two sides' names and the knee series' prefix, set by the
 * module's init. */
static const char *const series_names[4] = {"hip_L", "knee_L", "hip_R", "knee_R"};
static PyObject *side_names[2], *knee_prefix;

/* One series of a buffer sampler: sample k is stamped t0 + k / rate. */
typedef struct {
    const double *values;
    Py_ssize_t n;
    double t0, rate;
} sampled_series;

/* Stores in *out the sample of series k (see series_names) nearest the
 * event time t, by UniformSeries.index_near's rule: round((t - t0) * rate),
 * half to even, clamped to [0, n - 1] while still a double, so any t, +-inf
 * and NaN too, gives an index inside the series. Returns 0, or -1 with a
 * Python error set if the series is empty. */
static int sample(const sampled_series *buffers, int k, double t, double *out)
{
    const sampled_series *s = &buffers[k];
    if (s->n == 0) {
        PyErr_Format(PyExc_IndexError, "segment samples %s, which is empty", series_names[k]);
        return -1;
    }
    double r = nearbyint((t - s->t0) * s->rate);
    *out = s->values[r > 0.0 ? (r < (double)(s->n - 1) ? (Py_ssize_t)r : s->n - 1) : 0];
    return 0;
}

/* Appends the tuple Py_BuildValue makes of format and the arguments to
 * list; returns 0, or -1 with a Python error set. */
static int append_built(PyObject *list, const char *format, ...)
{
    va_list va;
    va_start(va, format);
    PyObject *item = Py_VaBuildValue(format, va);
    va_end(va);
    if (item == NULL)
        return -1;
    int failed = PyList_Append(list, item);
    Py_DECREF(item);
    return failed;
}

/* Runs one minimum event (series, index, t, value) through the segmenter:
 * StepSegmenter's rule, line for line the Python loop's. A completed step
 * appends (count, front side, alpha_f, beta_f, alpha_b, beta_b, t_front,
 * t_back) to rows, and a discarded or ignored event a diagnostic tuple of
 * its code and the values its message prints to diags. The series are
 * sampled for a knee event and for a hip event that completes a step,
 * nowhere else. Returns 0, or -1 with a Python error set: an event that is
 * not a tuple of four fields with a str series and numbers for t and
 * value, an empty series sampled, or an append that fails. */
static int segment_event(segment_state *st, PyObject *ev, const sampled_series *buffers,
                         double timeout, PyObject *timeout_obj, PyObject *rows, PyObject *diags)
{
    if (!PyTuple_Check(ev)) {
        PyErr_Format(PyExc_TypeError, "segment needs (series, index, t, value) tuples, got %s",
                     Py_TYPE(ev)->tp_name);
        return -1;
    }
    if (PyTuple_GET_SIZE(ev) != 4) {
        PyErr_Format(PyExc_ValueError, "segment needs events of 4 fields, got %zd",
                     PyTuple_GET_SIZE(ev));
        return -1;
    }
    PyObject *series = PyTuple_GET_ITEM(ev, 0);
    if (!PyUnicode_Check(series)) {
        PyErr_Format(PyExc_TypeError, "segment needs a str series, got %s",
                     Py_TYPE(series)->tp_name);
        return -1;
    }
    double t = PyFloat_AsDouble(PyTuple_GET_ITEM(ev, 2));
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    double value = PyFloat_AsDouble(PyTuple_GET_ITEM(ev, 3));
    if (value == -1.0 && PyErr_Occurred())
        return -1;
    /* series.endswith("L") and series.startswith("knee") */
    Py_ssize_t left = PyUnicode_Tailmatch(series, side_names[0], 0, PY_SSIZE_T_MAX, 1);
    Py_ssize_t knee = PyUnicode_Tailmatch(series, knee_prefix, 0, PY_SSIZE_T_MAX, -1);
    if (left < 0 || knee < 0)
        return -1;
    int side = left ? 0 : 1;

    if (st->pending && t - st->t > timeout) {
        if (append_built(diags, "(iOdO)", DIAG_TIMEOUT, side_names[st->side], st->t,
                         timeout_obj) < 0)
            return -1;
        st->pending = 0;
    }
    if (knee) {
        if (st->pending && append_built(diags, "(iOdO)", DIAG_KNEE_FIRST, side_names[st->side],
                                        st->t, side_names[side]) < 0)
            return -1;
        double alpha_f;
        if (sample(buffers, 2 * side, t, &alpha_f) < 0)
            return -1;
        st->pending = 1;
        st->side = side;
        st->t = t;
        st->beta_f = value;
        st->alpha_f = alpha_f;
        return 0;
    }
    if (!st->pending)
        return 0;
    if (side == st->side)
        return append_built(diags, "(iOd)", DIAG_SAME_SIDE, side_names[side], t);
    if (t <= st->t)
        return append_built(diags, "(iOd)", DIAG_NOT_AFTER, side_names[side], t);
    if (st->side == st->last_front) {
        st->pending = 0;
        st->last_front = -1; /* the next step resyncs the stream */
        return append_built(diags, "(iOd)", DIAG_NOT_ALTERNATE, side_names[st->side], st->t);
    }
    double beta_b;
    if (sample(buffers, 2 * side + 1, t, &beta_b) < 0
        || append_built(rows, "(nOdddddd)", st->count, side_names[st->side], st->alpha_f,
                        st->beta_f, value, beta_b, st->t, t) < 0)
        return -1;
    st->count++;
    st->last_front = st->side;
    st->pending = 0;
    return 0;
}

/* segment(events, sampler, state, timeout)
 *
 * events is a list of minimum events in MinimumEvent.sort_key order. The
 * sampler is a tuple of four (values, t0, rate) series in series_names'
 * order, each values a read-only C-contiguous buffer of doubles; the
 * caller guarantees the double format (StepSegmenter checks it), this
 * function checks the lengths. state is (pending, side, t, beta_f,
 * alpha_f, last_front, count) as in segment_state, and timeout the
 * back-event timeout in seconds. Returns (state, rows, diags): the state
 * after the events, one row per completed step and one tuple per
 * diagnostic (see segment_event). An event's t or value may be an object
 * whose __float__ changes the events list: each event is held while it
 * runs, and the loop reads the list's length anew each time.
 */
static PyObject *segment(PyObject *self, PyObject *args)
{
    PyObject *events, *sampler, *timeout_obj, *rows = NULL, *diags = NULL, *result = NULL;
    segment_state st;
    Py_buffer views[4];
    sampled_series series[4];
    (void)self;

    if (!PyArg_ParseTuple(args, "O!O!(pidddin)O:segment", &PyList_Type, &events, &PyTuple_Type,
                          &sampler, &st.pending, &st.side, &st.t, &st.beta_f, &st.alpha_f,
                          &st.last_front, &st.count, &timeout_obj))
        return NULL;
    double timeout = PyFloat_AsDouble(timeout_obj);
    if (timeout == -1.0 && PyErr_Occurred())
        return NULL;
    if (st.side < 0 || st.side > 1 || st.last_front < -1 || st.last_front > 1) {
        PyErr_Format(PyExc_ValueError,
                     "segment needs sides 0 or 1 (last front -1 too), got %d and %d", st.side,
                     st.last_front);
        return NULL;
    }
    if (!PyArg_ParseTuple(sampler, "(y*dd)(y*dd)(y*dd)(y*dd):segment", &views[0],
                          &series[0].t0, &series[0].rate, &views[1], &series[1].t0,
                          &series[1].rate, &views[2], &series[2].t0, &series[2].rate, &views[3],
                          &series[3].t0, &series[3].rate))
        return NULL;
    for (int k = 0; k < 4; k++) {
        series[k].values = views[k].buf;
        series[k].n = views[k].len / (Py_ssize_t)sizeof(double);
        if (views[k].len % sizeof(double) != 0) {
            PyErr_Format(PyExc_ValueError, "segment needs whole doubles, got %zd bytes",
                         views[k].len);
            goto done;
        }
    }
    rows = PyList_New(0);
    diags = PyList_New(0);
    if (rows == NULL || diags == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(events); k++) {
        PyObject *ev = Py_NewRef(PyList_GET_ITEM(events, k));
        int failed = segment_event(&st, ev, series, timeout, timeout_obj, rows, diags);
        Py_DECREF(ev);
        if (failed)
            goto done;
    }
    result = Py_BuildValue("((Oidddin)OO)", st.pending ? Py_True : Py_False, st.side, st.t,
                           st.beta_f, st.alpha_f, st.last_front, st.count, rows, diags);
done:
    Py_XDECREF(rows);
    Py_XDECREF(diags);
    for (int k = 0; k < 4; k++)
        PyBuffer_Release(&views[k]);
    return result;
}

/* numpy's sum of n contiguous doubles (pairwise_sum in its umath loops):
 * fewer than 8 terms in order; up to 128 in eight accumulators, combined
 * pairwise, then the rest in order; more split at a multiple of 8 near the
 * middle. The recursion depth is about log2(n / 128). */
static double pairwise_sum(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* out[i] is the mean of the 2m samples from s[m * (k_start + i)], for i in
 * [0, n_out): np.add.reduce starts from its identity, 0.0, and adds the
 * window's pairwise sum, so an all -0.0 window gives +0.0; then the divide
 * by 2m, which is numpy's conversion of 2m to a double (doubling is exact,
 * and 2 * m itself could overflow when n_out is 0). */
static void boxcar_loop(const double *s, Py_ssize_t m, Py_ssize_t k_start, double *out,
                        Py_ssize_t n_out)
{
    double width = 2.0 * (double)m;
    for (Py_ssize_t i = 0; i < n_out; i++)
        out[i] = (0.0 + pairwise_sum(s + m * (k_start + i), 2 * m)) / width;
}

/* boxcar(values, out, m, k_start)
 *
 * values is a read-only buffer of doubles and out a writable buffer of
 * n_out doubles, both C-contiguous; the caller guarantees the double
 * format, this function checks the lengths, that m >= 1 and k_start >= 0,
 * and that the last window, which ends at m * (k_start + n_out + 1), fits
 * in values. Writes the means into out and returns None.
 */
static PyObject *boxcar(PyObject *self, PyObject *args)
{
    Py_buffer values, out;
    Py_ssize_t m, k_start;
    PyObject *result = NULL;
    (void)self;

    if (!PyArg_ParseTuple(args, "y*w*nn:boxcar", &values, &out, &m, &k_start))
        return NULL;
    Py_ssize_t n = values.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n_out = out.len / (Py_ssize_t)sizeof(double);
    if (values.len % sizeof(double) != 0 || out.len % sizeof(double) != 0)
        PyErr_Format(PyExc_ValueError, "boxcar needs whole doubles, got %zd and %zd bytes",
                     values.len, out.len);
    else if (m < 1 || k_start < 0)
        PyErr_Format(PyExc_ValueError, "boxcar needs m >= 1 and k_start >= 0, got %zd and %zd",
                     m, k_start);
    /* m * (k_start + n_out + 1) <= n, written so that nothing overflows. */
    else if (n_out > 0 && k_start > n / m - n_out - 1)
        PyErr_Format(PyExc_ValueError,
                     "boxcar output %zd needs more than the %zd samples of values",
                     k_start + n_out - 1, n);
    else {
        boxcar_loop(values.buf, m, k_start, out.buf, n_out);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&values);
    PyBuffer_Release(&out);
    return result;
}

/* Whether values holds rows of off's shape (values.shape[1:] == off.shape)
 * and out has values' shape, all of 8-byte items. */
static int offset_shapes_fit(const Py_buffer *values, const Py_buffer *off, const Py_buffer *out)
{
    if (values->itemsize != 8 || off->itemsize != 8 || out->itemsize != 8 || values->ndim < 1
        || off->ndim != values->ndim - 1 || out->ndim != values->ndim)
        return 0;
    for (int k = 0; k < off->ndim; k++)
        if (off->shape[k] != values->shape[k + 1])
            return 0;
    for (int k = 0; k < values->ndim; k++)
        if (out->shape[k] != values->shape[k])
            return 0;
    return 1;
}

/* offset(values, offset, out)
 *
 * values, offset and out are C-contiguous buffers with shapes: values of
 * at least one dimension, offset of values.shape[1:] (a row) and out of
 * values' shape; the caller guarantees the double format, this function
 * checks the shapes and the item size. A float offset is a row of shape
 * (), for 1-D values. Writes out = values - offset, row by row, numpy's
 * broadcast: one exactly rounded subtraction per element, the same bits in
 * any order. Returns None.
 */
static PyObject *offset(PyObject *self, PyObject *args)
{
    PyObject *values_obj, *off_obj, *out_obj, *result = NULL;
    Py_buffer values, off, out;
    double scalar;
    (void)self;

    if (!PyArg_ParseTuple(args, "OOO:offset", &values_obj, &off_obj, &out_obj)
        || PyObject_GetBuffer(values_obj, &values, PyBUF_ND) < 0)
        return NULL;
    if (PyFloat_Check(off_obj)) {
        /* A view with no object, which PyBuffer_Release leaves alone. */
        scalar = PyFloat_AS_DOUBLE(off_obj);
        off = (Py_buffer){.buf = &scalar, .len = sizeof scalar, .itemsize = sizeof scalar};
    }
    else if (PyObject_GetBuffer(off_obj, &off, PyBUF_ND) < 0)
        goto release_values;
    if (PyObject_GetBuffer(out_obj, &out, PyBUF_ND | PyBUF_WRITABLE) < 0)
        goto release_off;
    if (!offset_shapes_fit(&values, &off, &out))
        PyErr_SetString(PyExc_ValueError,
                        "offset needs doubles: an offset of one row's shape and an out of "
                        "the values' shape");
    else {
        const double *v = values.buf, *o = off.buf;
        double *r = out.buf;
        Py_ssize_t n = values.len / 8, c = off.len / 8;
        /* One contiguous pass, row by row: a strided pass per column
         * cannot vectorise. c is 0 only where n is. */
        for (Py_ssize_t i = 0; i < n; i += c)
            for (Py_ssize_t j = 0; j < c; j++)
                r[i + j] = v[i + j] - o[j];
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
release_off:
    PyBuffer_Release(&off);
release_values:
    PyBuffer_Release(&values);
    return result;
}

/* rotate(values, matrix, out)
 *
 * values and out are C-contiguous buffers of the same n rows of 3 doubles,
 * and matrix is a C-contiguous (3, 3) buffer M; the caller guarantees the
 * double format, this function checks the lengths. Writes row i of
 * `values @ M`, out[i, j] = ((0.0 + x M[0, j]) + y M[1, j]) + z M[2, j] for
 * the row (x, y, z): a sum that starts from +0.0 as numpy's product does,
 * so for the mounts' signed permutations an all -0.0 row gives +0.0 and an
 * inf gives NaN where it meets a zero, bit for bit numpy's. Only a row
 * whose sum meets two NaNs (a NaN and an inf, say) may differ, in which of
 * the two it keeps: that follows the order of the additions, which numpy's
 * BLAS does not fix, and the filter reads every NaN alike. Returns None.
 */
static PyObject *rotate(PyObject *self, PyObject *args)
{
    Py_buffer values, matrix, out;
    PyObject *result = NULL;
    (void)self;

    if (!PyArg_ParseTuple(args, "y*y*w*:rotate", &values, &matrix, &out))
        return NULL;
    if (values.len % (3 * sizeof(double)) != 0 || matrix.len != 9 * sizeof(double)
        || out.len != values.len)
        PyErr_Format(PyExc_ValueError,
                     "rotate needs rows of 3 doubles in values and out alike and 9 doubles of "
                     "matrix, got %zd, %zd and %zd bytes", values.len, matrix.len, out.len);
    else {
        const double *v = values.buf, *m = matrix.buf;
        double *r = out.buf;
        Py_ssize_t n = values.len / (Py_ssize_t)(3 * sizeof(double));
        /* The matrix in locals, which the stores to out cannot change, so
         * it is loaded once rather than once per row. */
        double m00 = m[0], m01 = m[1], m02 = m[2];
        double m10 = m[3], m11 = m[4], m12 = m[5];
        double m20 = m[6], m21 = m[7], m22 = m[8];
        for (Py_ssize_t i = 0; i < n; i++) {
            double x = v[3 * i], y = v[3 * i + 1], z = v[3 * i + 2];
            double out0 = ((0.0 + x * m00) + y * m10) + z * m20;
            double out1 = ((0.0 + x * m01) + y * m11) + z * m21;
            double out2 = ((0.0 + x * m02) + y * m12) + z * m22;
            r[3 * i] = out0;
            r[3 * i + 1] = out1;
            r[3 * i + 2] = out2;
        }
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&values);
    PyBuffer_Release(&matrix);
    PyBuffer_Release(&out);
    return result;
}

/* The median of three values. */
static double median3(double x, double y, double z)
{
    double lo = x < y ? x : y, hi = x < y ? y : x;
    double m = hi < z ? hi : z;
    return lo < m ? m : lo;
}

/* Moves the values of a[i..end) below `bound` (strict) or not above it
 * (not strict) to the front of the range and returns where the others
 * start. Lomuto's scheme with an unconditional swap: no branch depends on
 * a comparison, so a window's unpredictable order costs no mispredictions. */
static inline Py_ssize_t split(double *a, Py_ssize_t i, Py_ssize_t end, double bound, int strict)
{
    Py_ssize_t front = i;
    for (; i < end; i++) {
        double v = a[i];
        a[i] = a[front];
        a[front] = v;
        front += strict ? v < bound : v <= bound;
    }
    return front;
}

/* The k-th smallest of a[0..n), 0 <= k < n, moved to a[k] with no larger
 * value before it: quickselect (Hoare's FIND, CACM 4(7), 1961), bounding
 * each round by the median of the range's first, middle and last values
 * and keeping the side of the split that holds k. The bound is one of the
 * range's values, so a split leaves both sides non-empty unless the bound
 * is the range's least value; then a second split takes the run of values
 * equal to it off the front, which ends the search on a run of ties. No
 * NaN: every comparison is an order. An order built against the
 * median-of-three bound makes it quadratic in n; a standing window holds
 * a few hundred samples. */
static double select_rank(double *a, Py_ssize_t n, Py_ssize_t k)
{
    Py_ssize_t lo = 0, end = n;
    while (end - lo > 1) {
        double bound = median3(a[lo], a[lo + (end - lo) / 2], a[end - 1]);
        Py_ssize_t below = split(a, lo, end, bound, 1);
        if (k < below)
            end = below;
        else if (below > lo)
            lo = below;
        else if (k < (below = split(a, lo, end, bound, 0)))
            break;
        else
            lo = below;
    }
    return a[k];
}

/* The two middle values of a[0..n), n >= 1, the middle value twice for an
 * odd n, reordering a: the upper is selected, and the lower is the largest
 * value the selection left below it. Each is stored plus +0.0, which turns
 * -0.0 into +0.0: which of two equal samples lands in place is the
 * algorithm's choice, so the sign of a zero tie is not fixed. */
static void middle_pair(double *a, Py_ssize_t n, double *lo, double *hi)
{
    Py_ssize_t h = n / 2;
    double upper = select_rank(a, n, h), lower = upper;
    if (n % 2 == 0) {
        lower = a[0];
        for (Py_ssize_t i = 1; i < h; i++)
            if (a[i] > lower)
                lower = a[i];
    }
    *lo = 0.0 + lower;
    *hi = 0.0 + upper;
}

/* np.median's value from the middle pair of n values: the mean of the one
 * or two middle values, a sum that starts from +0.0, so a -0.0 median
 * comes out +0.0. */
static double pair_median(double lo, double hi, Py_ssize_t n)
{
    return n % 2 ? 0.0 + lo : (0.0 + lo + hi) / 2;
}

/* medians(window) -> (lo, hi, mad) or None
 *
 * window is an (n,) or (n, c) buffer of doubles, n >= 1, read in place in
 * any layout, one channel when 1-D; the caller guarantees the double
 * format, this function checks the shape and the item size. Returns None
 * if a sample is NaN or inf. Otherwise returns three lists of c floats:
 * each channel's lower and upper middle values and the median of its
 * absolute deviations from its median. Each channel is copied once into
 * scratch memory, which the selections reorder, so the window is left
 * unchanged. The middle values are the order statistics numpy's partition
 * finds, with -0.0 read as +0.0, so the results are `_medians_loop`'s bits.
 */
static PyObject *medians(PyObject *self, PyObject *arg)
{
    Py_buffer window;
    PyObject *result = NULL, *lists[3] = {NULL, NULL, NULL};
    double *a = NULL;
    (void)self;

    if (PyObject_GetBuffer(arg, &window, PyBUF_STRIDES) < 0)
        return NULL;
    Py_ssize_t n = window.ndim >= 1 ? window.shape[0] : 0;
    Py_ssize_t c = window.ndim == 2 ? window.shape[1] : 1;
    if (window.itemsize != 8 || window.ndim < 1 || window.ndim > 2 || n < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "medians needs an (n,) or (n, c) window of n >= 1 doubles");
        goto done;
    }
    if ((a = PyMem_New(double, n)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int k = 0; k < 3; k++)
        if ((lists[k] = PyList_New(c)) == NULL)
            goto done;
    for (Py_ssize_t j = 0; j < c; j++) {
        const char *column = window.buf;
        if (window.ndim == 2)
            column += j * window.strides[1];
        int finite = 1;
        for (Py_ssize_t i = 0; i < n; i++) {
            /* memcpy, as a strided view may be unaligned */
            memcpy(&a[i], column + i * window.strides[0], sizeof *a);
            finite &= isfinite(a[i]) != 0;
        }
        if (!finite) {
            result = Py_NewRef(Py_None);
            goto done;
        }
        double stats[3], lo, hi;
        middle_pair(a, n, &stats[0], &stats[1]);
        double median = pair_median(stats[0], stats[1], n);
        for (Py_ssize_t i = 0; i < n; i++)
            a[i] = fabs(a[i] - median);
        middle_pair(a, n, &lo, &hi);
        stats[2] = pair_median(lo, hi, n);
        for (int k = 0; k < 3; k++) {
            PyObject *f = PyFloat_FromDouble(stats[k]);
            if (f == NULL)
                goto done;
            PyList_SET_ITEM(lists[k], j, f);
        }
    }
    result = PyTuple_Pack(3, lists[0], lists[1], lists[2]);
done:
    for (int k = 0; k < 3; k++)
        Py_XDECREF(lists[k]);
    PyMem_Free(a);
    PyBuffer_Release(&window);
    return result;
}

/* The free list holds at most BLOCK_POOL_COUNT blocks of at most
 * BLOCK_POOL_BYTES together. A 60 s two-leg recording takes ten blocks,
 * eight (15000, 3) arrays and two hip angles, but a stage's output is
 * released while the next leg runs, so eight blocks of 2.4 MB in all serve
 * it (measured on the batch chain). The caps hold twice that count, and
 * every block of a recording of up to about 28 minutes. */
#define BLOCK_POOL_COUNT 16
#define BLOCK_POOL_BYTES (64 << 20)

typedef struct {
    PyObject_HEAD
    char *buf;
    Py_ssize_t len; /* the bytes the buffer exposes */
    size_t cap;     /* the bytes malloc gave, len or more */
} block_object;

/* Released memory, most recently released last. */
static struct {
    char *buf;
    size_t cap;
} pool[BLOCK_POOL_COUNT];
static int pool_count;
static size_t pool_bytes;

static int block_getbuffer(PyObject *self, Py_buffer *view, int flags)
{
    block_object *b = (block_object *)self;
    return PyBuffer_FillInfo(view, self, b->buf, b->len, 0, flags);
}

/* Runs once no array, view or memoryview of the block is left, so memory
 * it puts back on the list is no longer read or written by anyone. An
 * empty block is freed: no request could take it back. */
static void block_dealloc(PyObject *self)
{
    block_object *b = (block_object *)self;
    if (b->cap > 0 && pool_count < BLOCK_POOL_COUNT && b->cap <= BLOCK_POOL_BYTES - pool_bytes) {
        pool[pool_count].buf = b->buf;
        pool[pool_count].cap = b->cap;
        pool_count++;
        pool_bytes += b->cap;
    }
    else
        free(b->buf);
    Py_TYPE(self)->tp_free(self);
}

static PyBufferProcs block_as_buffer = {block_getbuffer, NULL};

static PyTypeObject block_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "gaitlab._kernel_c.block",
    .tp_basicsize = sizeof(block_object),
    .tp_dealloc = block_dealloc,
    .tp_as_buffer = &block_as_buffer,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A writable buffer whose memory goes back to the free list.",
};

/* block(nbytes)
 *
 * Returns a writable buffer of exactly nbytes (nbytes >= 0), uninitialised.
 * Its memory is the most recently released block on the free list whose
 * capacity is at least nbytes and under twice that, or else malloc's.
 */
static PyObject *block(PyObject *self, PyObject *args)
{
    Py_ssize_t nbytes;
    (void)self;

    if (!PyArg_ParseTuple(args, "n:block", &nbytes))
        return NULL;
    if (nbytes < 0) {
        PyErr_Format(PyExc_ValueError, "block needs nbytes >= 0, got %zd", nbytes);
        return NULL;
    }
    block_object *b = PyObject_New(block_object, &block_type);
    if (b == NULL)
        return NULL;
    b->buf = NULL;
    b->len = nbytes;
    for (int k = pool_count - 1; k >= 0; k--) {
        if (pool[k].cap >= (size_t)nbytes && pool[k].cap - (size_t)nbytes < (size_t)nbytes) {
            b->buf = pool[k].buf;
            b->cap = pool[k].cap;
            pool_bytes -= pool[k].cap;
            pool_count--;
            for (; k < pool_count; k++)
                pool[k] = pool[k + 1];
            break;
        }
    }
    if (b->buf == NULL) {
        b->cap = (size_t)nbytes;
        b->buf = malloc(nbytes > 0 ? (size_t)nbytes : 1);
        if (b->buf == NULL) {
            PyObject_Free(b);
            return PyErr_NoMemory();
        }
    }
    return (PyObject *)b;
}

/* pooled() -> (count, nbytes): the blocks on the free list and their total
 * capacity. */
static PyObject *pooled(PyObject *self, PyObject *args)
{
    (void)self;
    (void)args;
    return Py_BuildValue("(in)", pool_count, (Py_ssize_t)pool_bytes);
}

static PyMethodDef methods[] = {
    {"loop", loop, METH_VARARGS, "Run the Madgwick filter loop over n samples."},
    {"minima", minima, METH_VARARGS, "Run the minima detector loop over derivatives."},
    {"segment", segment, METH_VARARGS, "Run the step segmenter over a list of minimum events."},
    {"boxcar", boxcar, METH_VARARGS, "Write the decimating boxcar's means for n outputs."},
    {"offset", offset, METH_VARARGS, "Write each row minus the offset row."},
    {"rotate", rotate, METH_VARARGS, "Write each 3-vector row times a 3x3 matrix."},
    {"medians", medians, METH_O,
     "Return each channel's middle pair and median absolute deviation; None on a NaN or inf."},
    {"block", block, METH_VARARGS, "Return a writable buffer of nbytes from the free list."},
    {"pooled", pooled, METH_NOARGS, "Return the free list's block count and total bytes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel_c", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

/* Interns the names segment reads and writes, once per process. */
static int intern_names(void)
{
    if (side_names[0] == NULL && (side_names[0] = PyUnicode_InternFromString("L")) == NULL)
        return -1;
    if (side_names[1] == NULL && (side_names[1] = PyUnicode_InternFromString("R")) == NULL)
        return -1;
    if (knee_prefix == NULL && (knee_prefix = PyUnicode_InternFromString("knee")) == NULL)
        return -1;
    return 0;
}

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    if (PyType_Ready(&block_type) < 0 || intern_names() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddIntConstant(m, "BLOCK_POOL_COUNT", BLOCK_POOL_COUNT) < 0
                      || PyModule_AddIntConstant(m, "BLOCK_POOL_BYTES", BLOCK_POOL_BYTES) < 0)) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
