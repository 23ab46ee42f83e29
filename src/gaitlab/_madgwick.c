/* The three compiled loops of the gaitlab chain, as one CPython extension
 * module.
 *
 * `madgwick_loop` is the loop of gaitlab.orientation.madgwick_batch,
 * `minima_loop` the loop of gaitlab.events.MinimaDetector.feed_derivative
 * and `boxcar_loop` the decimating boxcar of gaitlab.signal.smoothed_block,
 * each a translation of its Python loop (`orientation._madgwick_loop`,
 * `events._minima_loop`, `signal._boxcar_loop`) that does the same
 * operations on the same operands. Built without floating-point contraction
 * or reassociation (-O2 -ffp-contract=off, no -ffast-math), they give the
 * same bits. Each entry point, `loop`, `minima` and `boxcar`, takes the same
 * arguments and returns the same values as its Python loop, so the callers
 * call either one the same way.
 *
 * `madgwick_loop` takes the gyro in deg/s and writes the hip angle in
 * degrees: per sample it multiplies the rate by DEG and the angle by
 * DEG_PER_RAD, the multiplies numpy's `g * DEG` and `np.degrees` do. It is
 * arranged so that little sits on its per-sample dependency chain, the
 * quaternion recurrence. The proportional gain beta / gradient_ref is
 * divided once per call and the per-sample beta / ns is taken only in a
 * branch when the gradient norm exceeds gradient_ref: each is the Python
 * loop's divide on the same operands, and a predicted branch lets the CPU
 * run ahead without waiting on the sqrt and the divide. The hip angle's
 * atan2, which reads the quaternion but feeds nothing back, runs per block
 * of samples after the recurrence, on the numerator and denominator stored
 * as they were computed.
 *
 * `boxcar_loop` sums each window in the order of numpy's contiguous add
 * reduction (`pairwise_sum`), so its means are np.add.reduce's bits.
 *
 * The entry points pass the loops the buffers without copying them;
 * building the module needs the interpreter's headers (Python.h).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Samples per atan2 pass: den[] is 2 KiB of stack, and out[] is still in
 * cache when the pass reads it back. */
#define ANGLE_BLOCK 256

/* Python's math.pi / 180.0 and 180.0 / math.pi: M_PI is the same double as
 * math.pi, and the compiler folds each divide with IEEE rounding. */
#define DEG (M_PI / 180.0)
#define DEG_PER_RAD (180.0 / M_PI)

/* `q` is read and written as (w, x, y, z); accel (g) and gyro (deg/s) are
 * C-contiguous (n, 3); `out` receives the hip angle in degrees after each
 * sample. Returns the accel-rejected flag after the last sample, which is
 * the incoming flag when n is 0.
 */
static int madgwick_loop(double *q, const double *accel, const double *gyro, long n,
                         double dt, double beta, double gradient_ref,
                         int accel_rejected, double *out)
{
    double w = q[0], x = q[1], y = q[2], z = q[3];
    double k_ref = beta / gradient_ref;
    double den[ANGLE_BLOCK];
    for (long b = 0; b < n; b += ANGLE_BLOCK) {
        long e = n - b < ANGLE_BLOCK ? n : b + ANGLE_BLOCK;
        for (long i = b; i < e; i++) {
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
            /* The hip angle is atan2(out[i], den[i - b]), taken below. */
            out[i] = 2.0 * (x * z - w * y);
            den[i - b] = 1.0 - 2.0 * (x * x + y * y);
        }
        for (long i = b; i < e; i++)
            out[i] = atan2(out[i], den[i - b]) * DEG_PER_RAD;
    }
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

static PyMethodDef methods[] = {
    {"loop", loop, METH_VARARGS, "Run the Madgwick filter loop over n samples."},
    {"minima", minima, METH_VARARGS, "Run the minima detector loop over derivatives."},
    {"boxcar", boxcar, METH_VARARGS, "Write the decimating boxcar's means for n outputs."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_madgwick", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__madgwick(void)
{
    return PyModule_Create(&module);
}
